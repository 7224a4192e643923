"""Flow-level fast path: analytic delivery of whole packet trains.

The event engine spends almost all of a clean study's time moving media
packets hop by hop: every packet costs two heap events per direction
(serialize, deliver) across ~17 hops, even though on an idle FIFO path
the whole schedule is closed-form.  This module computes that schedule
directly.  When a datagram's packet train leaves the sender's IP layer,
the :class:`FlowLevelDirector` walks the routed path once and — if
every direction is analytically tractable — computes each packet's
departure and arrival times with the exact store-and-forward recursion
the event path would have produced::

    dep[i]     = max(entry[i], dep[i-1]) + tx(wire_bytes[i], bandwidth)
    arrival[i] = (dep[i] + propagation) + max(0, jitter())
    arrival[i] = max(arrival[i], last_delivery)        # wires are FIFO

then schedules **one** event per packet, at its client arrival time.
The float operations match :meth:`~repro.netsim.link._Direction`'s
event path term for term, so with zero jitter the analytic schedule is
bit-identical to packet-level simulation; with Gaussian jitter the
per-train draw order matches the wire order, so a lone train is still
exact and only cross-train RNG interleaving differs.

**Validity conditions** (checked per train, per direction, at send
time): the direction is up and idle (no queued or in-flight real
packets), plain Bernoulli loss with probability zero, a plain drop-tail
queue, UDP data traffic with enough TTL, and no overlap with a
registered *blackout window* (fault schedules, cross-traffic sources,
and congestion-control activation register those).  Anything else
refuses the train and the sender's IP layer falls through to the
packet-level path — per-interval fallback, not a mode switch.

**Reservations** keep concurrently-streaming flows honest: a committed
train leaves each direction's virtual occupancy (``_reserved_until``),
last entry time, and delivery clamp behind.  A later train may chain
onto a reservation only if its first entry does not interleave with
the reservation's last entry (then FIFO order is provably preserved at
every downstream hop); a real packet-level packet arriving during a
virtual occupancy waits it out, so mixed traffic never reorders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.netsim.headers import IpProtocol
from repro.netsim.link import LossModel, _Direction, no_jitter
from repro.netsim.packet import Packet
from repro.netsim.queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.engine import Simulator
    from repro.netsim.ip import IpLayer
    from repro.netsim.node import Host, Node

#: Fallback-reason labels (stable names; tests and reports key on them).
REASON_PROTOCOL = "protocol"
REASON_CROSS_TRAFFIC = "cross-traffic"
REASON_NO_ROUTE = "no-route"
REASON_TTL = "ttl"
REASON_LINK_DOWN = "link-down"
REASON_TAPPED = "tapped-router"
REASON_LOSSY = "lossy-link"
REASON_CONTENTION = "contention"
REASON_INTERLEAVE = "interleave"
REASON_BLACKOUT = "blackout"


@dataclass(frozen=True)
class FlowLevelConfig:
    """Opt-in knobs for the fast path (pure data, picklable).

    Attributes:
        guard_seconds: extra padding applied to both ends of every
            blackout window; 0.0 trusts the registered windows exactly.
        strict: when True, refuse any train that would cross a
            direction with real packets serializing or queued, keeping
            every accepted train *provably exact* (bit-identical to
            packet-level at zero jitter).  The default (False) chains
            the departure recursion through the known serializer
            backlog instead — still FIFO-consistent, but a real packet
            crossing a slower downstream hop ahead of the train can
            shift deliveries by transmission-time-scale amounts, so
            results agree with packet-level within tolerances rather
            than exactly.  Strict mode falls back far more often on
            busy topologies (every fallback packet re-dirties ~2×hops
            directions for its whole flight).
    """

    guard_seconds: float = 0.0
    strict: bool = False

    def fingerprint(self) -> str:
        """Stable key material for the study cache."""
        return (f"flowlevel-v1:guard={self.guard_seconds!r}"
                f":strict={int(self.strict)}")


@dataclass(frozen=True)
class FastPathSummary:
    """Per-run fast-path outcome, attached to study results."""

    trains_fast: int = 0
    packets_fast: int = 0
    trains_fallback: int = 0
    packets_fallback: int = 0
    events_saved: int = 0
    #: Times a real (fallback) packet was held behind a committed
    #: train reservation; zero means every accepted train was provably
    #: exact (at zero jitter) — the equivalence harness keys on this.
    reals_parked: int = 0
    fallback_reasons: Tuple[Tuple[str, int], ...] = ()


def train_schedule(entries: Sequence[float], wires: Sequence[int],
                   bandwidth_bps: float, propagation: float,
                   prev_dep: float, last_delivery: float,
                   jitters: Sequence[float],
                   ) -> Tuple[List[float], float, float]:
    """One direction's store-and-forward schedule for one train.

    Replicates the event path's float operations exactly (see module
    docstring); shared by the director and the ``fastpath-equivalence``
    refold so the two can never drift apart.

    Returns:
        ``(arrivals, dep_last, last_delivery)``.
    """
    dep = prev_dep
    arrivals: List[float] = []
    append = arrivals.append
    for entry, wire, jitter in zip(entries, wires, jitters):
        start = entry if entry > dep else dep
        # Inlined units.transmission_delay (same float operations).
        dep = start + wire * 8.0 / bandwidth_bps
        # Conditionals instead of max(): same results, and this loop
        # runs once per packet per direction — it is the fast path's
        # inner kernel.
        arrival = dep + propagation + (jitter if jitter > 0.0 else 0.0)
        if arrival < last_delivery:
            arrival = last_delivery
        last_delivery = arrival
        append(arrival)
    return arrivals, dep, last_delivery


@dataclass(frozen=True)
class _DirectionFold:
    """Ledger record of one direction's inputs to :func:`train_schedule`."""

    label: str
    bandwidth_bps: float
    propagation: float
    prev_dep: float
    last_delivery: float
    jitters: Tuple[float, ...]


@dataclass(frozen=True)
class TrainRecord:
    """One accepted train's full analytic derivation (ledger entry)."""

    sent_at: float
    wires: Tuple[int, ...]
    directions: Tuple[_DirectionFold, ...]
    arrivals: Tuple[float, ...]

    def refold(self) -> Tuple[float, ...]:
        """Recompute the final arrivals from the recorded inputs."""
        entries: Sequence[float] = [self.sent_at] * len(self.wires)
        arrivals: List[float] = list(entries)
        for fold in self.directions:
            arrivals, _, _ = train_schedule(
                entries, self.wires, fold.bandwidth_bps, fold.propagation,
                fold.prev_dep, fold.last_delivery, fold.jitters)
            entries = arrivals
        return tuple(arrivals)


class FlowLevelDirector:
    """Per-simulation fast-path state machine.

    Created by ``Simulator(fast_path=FlowLevelConfig())``; the sender's
    IP layer offers every outgoing train via :meth:`try_deliver` and
    falls through to packet-level emission when it returns False.
    """

    def __init__(self, sim: "Simulator", config: FlowLevelConfig) -> None:
        if (sim.telemetry is not None
                and getattr(sim.telemetry, "spans", None) is not None):
            raise SimulationError(
                "the flow-level fast path emits no per-hop span events; "
                "run with span tracing off or fast_path=None")
        self.sim = sim
        self.config = config
        self.enabled = True
        #: Closed blackout intervals [(start, end)]; ``end`` may be inf.
        self._blackouts: List[Tuple[float, float]] = []
        self._path_cache: Dict[Tuple[int, object], Optional[tuple]] = {}
        self._path_cache_enabled = True
        self._record_ledger = sim.validator is not None
        self.ledger: List[TrainRecord] = []
        self.trains_fast = 0
        self.packets_fast = 0
        self.trains_fallback = 0
        self.packets_fallback = 0
        self.events_saved = 0
        self.reals_parked = 0
        self.fallback_reasons: Dict[str, int] = {}
        if sim.validator is not None:
            sim.validator.register_fastpath(self)

    # ------------------------------------------------------------------
    # Blackout windows (faults, cross traffic, cc activation)
    # ------------------------------------------------------------------
    def add_blackout(self, start: float, end: float) -> None:
        """Refuse any train whose flight overlaps ``[start, end]``.

        Registered up front by the fault controller (which knows its
        whole schedule at arm time) and dynamically by cross-traffic
        sources and congestion-control activation; ``end`` may be
        ``float('inf')`` for an open window.
        """
        guard = self.config.guard_seconds
        self._blackouts.append((start - guard, end + guard))
        # Route re-convergence under faults can change next hops for
        # good; cached paths are only trusted on fault-free runs.
        self._path_cache_enabled = False
        self._path_cache.clear()

    def close_blackout(self, start: float, end: float) -> None:
        """Close a previously-open window registered as ``(start, inf)``."""
        guard = self.config.guard_seconds
        try:
            index = self._blackouts.index((start - guard, float("inf")))
        except ValueError:
            return
        self._blackouts[index] = (start - guard, end + guard)

    def _blacked_out(self, start: float, end: float) -> bool:
        for w_start, w_end in self._blackouts:
            if start <= w_end and w_start <= end:
                return True
        return False

    # ------------------------------------------------------------------
    # Routing walk
    # ------------------------------------------------------------------
    def _resolve_path(self, host: "Host", dst) -> Optional["_PathEntry"]:
        """Cached :class:`_PathEntry` for host->dst, or None."""
        if self._path_cache_enabled:
            key = (id(host), dst)
            cached = self._path_cache.get(key, _MISS)
            if cached is not _MISS:
                return cached
        path = self._walk_path(host, dst)
        entry = None if path is None else _PathEntry(*path)
        if self._path_cache_enabled:
            self._path_cache[(id(host), dst)] = entry
        return entry

    def _build_profile(self, directions: Tuple[_Direction, ...],
                       ) -> Tuple[Optional[list], Optional[str]]:
        """Validate per-direction statics; ``(profile, refusal_reason)``.

        The profile snapshots everything that can only change through a
        link mutator (each of which bumps ``sim.topology_epoch``):
        administrative state, loss model, queue object, bandwidth,
        propagation, jitter callable, queue capacity.  The dynamic loop
        in :meth:`try_deliver` then touches only per-train state.  A
        :func:`~repro.netsim.link.no_jitter` direction stores None, so
        the fold uses zeros instead of calling it once per packet.
        """
        profile = []
        for direction in directions:
            if not direction._up:
                return None, REASON_LINK_DOWN
            loss = direction._loss
            if type(loss) is not LossModel or loss.probability > 0.0:
                return None, REASON_LOSSY
            queue = direction._queue
            if type(queue) is not DropTailQueue:
                return None, REASON_CONTENTION
            jitter = direction._jitter
            profile.append((direction, direction._bandwidth_bps,
                            direction._propagation_delay,
                            None if jitter is no_jitter else jitter,
                            queue, queue._queue, queue.capacity_bytes))
        return profile, None

    def _walk_path(self, host: "Host", dst) -> Optional[tuple]:
        from repro.netsim.node import Host as HostNode
        from repro.errors import RoutingError

        node: "Node" = host
        directions: List[_Direction] = []
        routers: List["Node"] = []
        for _ in range(64):
            try:
                next_hop = node.routing.lookup(dst)
            except RoutingError:
                return None
            link = node.neighbors.get(next_hop)
            if link is None:
                return None
            directions.append(link._forward if node is link.a
                              else link._reverse)
            node = next_hop
            if node.address == dst:
                if isinstance(node, HostNode):
                    return tuple(directions), tuple(routers), node
                return None  # router-terminated; leave to packet-level
            if isinstance(node, HostNode):
                return None  # misroute; packet-level drops it
            routers.append(node)
        return None

    # ------------------------------------------------------------------
    # The fast path
    # ------------------------------------------------------------------
    def try_deliver(self, ip: "IpLayer", packets: List[Packet]) -> bool:
        """Deliver a train analytically; False means fall back.

        On acceptance all sender/hop/link bookkeeping the packet-level
        path would perform synchronously is applied here, and one
        delivery event per packet is scheduled at its computed client
        arrival; the caller must then *not* emit the packets.
        """
        if not self.enabled:
            return False
        first = packets[0]
        if first.ip.protocol is not IpProtocol.UDP:
            return self._refuse(packets, REASON_PROTOCOL)
        if first.payload.kind == "cross-traffic":
            return self._refuse(packets, REASON_CROSS_TRAFFIC)
        host = ip.host
        entry_cache = self._resolve_path(host, first.ip.dst)
        if entry_cache is None:
            return self._refuse(packets, REASON_NO_ROUTE)
        sim = self.sim
        epoch = sim.topology_epoch
        if entry_cache.epoch != epoch:
            profile, reason = self._build_profile(entry_cache.directions)
            entry_cache.profile = profile
            entry_cache.reason = reason
            entry_cache.epoch = epoch
        if entry_cache.profile is None:
            return self._refuse(packets, entry_cache.reason)
        directions = entry_cache.directions
        routers = entry_cache.routers
        if first.ip.ttl <= len(routers):
            return self._refuse(packets, REASON_TTL)
        for router in routers:
            if router.taps:
                # A sniffer on a transit router expects per-forward tx
                # taps with true timestamps; only the event path has
                # those.
                return self._refuse(packets, REASON_TAPPED)
        now = sim.now
        count = len(packets)
        strict = self.config.strict
        train_bytes = sum(packet.ip_bytes for packet in packets)
        wires = tuple(packet.wire_bytes for packet in packets)
        zeros = (0.0,) * count
        # Most trains are one packet; those fold as scalars below.
        single = count == 1
        wire = wires[0]
        entries: Sequence[float] = [now] * count
        entry = now  # entries[0], the train's first entry at each hop
        # One pass per direction: dynamic eligibility (statics were
        # settled by the profile above), then the speculative analytic
        # schedule.  Direction state mutates only in the commit phase
        # below, so a refusal here perturbs nothing but the jitter
        # streams already drawn (deterministically).
        record = self._record_ledger
        folds: List[_DirectionFold] = []
        #: Per direction: (first entry, dep of last packet, last arrival).
        commits: List[Tuple[float, float, float]] = []
        for (direction, bandwidth, propagation, jitter, queue, backlog,
             capacity) in entry_cache.profile:
            busy = direction._busy
            if strict and (busy or backlog):
                # Strict mode: only provably-exact folds.  A busy
                # transmitter or queued backlog means a real packet
                # will cross downstream hops ahead of this train, and
                # its downstream serialization is not visible here.
                return self._refuse(packets, REASON_CONTENTION)
            if queue._bytes + train_bytes > capacity:
                # The event path would tail-drop part of this train;
                # the analytic model delivers everything, so refuse.
                return self._refuse(packets, REASON_CONTENTION)
            if entry < direction._fp_last_entry:
                return self._refuse(packets, REASON_INTERLEAVE)
            jitters = (zeros if jitter is None
                       else tuple([jitter() for _ in range(count)]))
            # Chain the departure recursion through everything the
            # serializer is already committed to: prior reservations,
            # the in-service real packet (departure pinned by
            # _busy_until), and the queued backlog in FIFO order.  In
            # strict mode the latter two were refused above, so this
            # reduces to the provably-exact reservation chain.
            prev_dep = direction._reserved_until
            if busy and direction._busy_until > prev_dep:
                prev_dep = direction._busy_until
            for pending in backlog:
                prev_dep += pending.wire_bytes * 8.0 / bandwidth
            last_delivery = direction._last_delivery
            if record:
                folds.append(_DirectionFold(
                    label=direction._label,
                    bandwidth_bps=bandwidth,
                    propagation=propagation,
                    prev_dep=prev_dep,
                    last_delivery=last_delivery,
                    jitters=jitters))
            if single:
                # train_schedule for one packet, inlined as scalars:
                # the same float operations in the same order, without
                # a call and two lists per hop.  The ledger refold runs
                # the real kernel, so validated runs check this branch.
                dep = entry if entry > prev_dep else prev_dep
                dep = dep + wire * 8.0 / bandwidth
                extra = jitters[0]
                arrival = dep + propagation + (extra if extra > 0.0
                                               else 0.0)
                if arrival < last_delivery:
                    arrival = last_delivery
                commits.append((entry, dep, arrival))
                entry = arrival
                continue
            arrivals, dep_last, last_delivery = train_schedule(
                entries, wires, bandwidth, propagation,
                prev_dep, last_delivery, jitters)
            commits.append((entries[-1], dep_last, last_delivery))
            entries = arrivals
            entry = arrivals[0]
        arrivals = [entry] if single else list(entries)
        if self._blackouts and self._blacked_out(now, arrivals[-1]):
            return self._refuse(packets, REASON_BLACKOUT)

        # ---- commit ---------------------------------------------------
        ip.stats.packets_sent += count
        notify = host._notify_taps
        for packet in packets:
            notify("tx", packet)
        for router in routers:
            router.forwarded += count
        total_bytes = train_bytes
        final = directions[-1]
        for direction, (last_entry, dep_last, last_delivery) in zip(
                directions, commits):
            direction._reserved_until = dep_last
            direction._fp_last_entry = last_entry
            # Delivery-order clamp for any later packet on this wire,
            # virtual or real.
            direction._last_delivery = last_delivery
            stats = direction.stats
            stats.packets_sent += count
            if direction._telemetry is not None:
                direction._ctr_sent.inc(count)
            if direction is final:
                continue
            # Intermediate hops: their deliveries all precede the final
            # arrivals, so the books close synchronously; the final
            # direction delivers through its own event path below.
            stats.packets_delivered += count
            stats.bytes_delivered += total_bytes
            if direction._telemetry is not None:
                direction._ctr_delivered.inc(count)
                direction._ctr_bytes.inc(total_bytes)
        hops = len(routers)
        final._in_flight += count
        schedule_at = sim.schedule_at
        finish = self._finish_virtual
        for packet, arrival in zip(packets, arrivals):
            delivered = packet if hops == 0 else Packet(
                ip=packet.ip.decremented(hops),
                transport=packet.transport, payload=packet.payload,
                datagram_id=packet.datagram_id, span=packet.span)
            schedule_at(arrival, finish, final, delivered)
        if self._record_ledger:
            self.ledger.append(TrainRecord(
                sent_at=now, wires=wires, directions=tuple(folds),
                arrivals=tuple(arrivals)))
        self.trains_fast += 1
        self.packets_fast += count
        self.events_saved += count * 2 * len(directions) - count
        return True

    def _finish_virtual(self, direction: _Direction,
                        packet: Packet) -> None:
        direction._deliver(packet)

    def _refuse(self, packets: List[Packet], reason: str) -> bool:
        self.trains_fallback += 1
        self.packets_fallback += len(packets)
        self.fallback_reasons[reason] = (
            self.fallback_reasons.get(reason, 0) + 1)
        return False

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> FastPathSummary:
        return FastPathSummary(
            trains_fast=self.trains_fast,
            packets_fast=self.packets_fast,
            trains_fallback=self.trains_fallback,
            packets_fallback=self.packets_fallback,
            events_saved=self.events_saved,
            reals_parked=self.reals_parked,
            fallback_reasons=tuple(sorted(self.fallback_reasons.items())))


class _PathEntry:
    """Cached route plus its epoch-validated static profile.

    ``profile`` is a list of per-direction tuples ``(direction,
    bandwidth_bps, propagation, jitter, queue, backlog_deque,
    capacity_bytes)``, ``jitter`` None for a jitter-free direction — or
    None with ``reason`` set when a static check failed (then every
    train on this path refuses in O(1) until a link mutator bumps the
    topology epoch).
    """

    __slots__ = ("directions", "routers", "sink", "profile", "reason",
                 "epoch")

    def __init__(self, directions, routers, sink) -> None:
        self.directions = directions
        self.routers = routers
        self.sink = sink
        self.profile = None
        self.reason = None
        self.epoch = -1  # never matches; first use builds the profile


#: Sentinel distinguishing a cached None path from a cache miss.
_MISS = object()

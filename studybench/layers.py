"""Per-layer tracing for the traced benchmark run.

The program has no tracing of its own yet, so this module wraps the
layers' entry points from the outside for one sweep and removes the
wrappers afterwards.  Each wrapper records a span (layer name, start,
end, parent) on a stack; when a span closes, its duration minus the
time its child spans covered is added to the layer's *self* time.
Times are integer nanoseconds, so a self time is never negative and
the self times of one process add up to exactly the root span.

Counts come from the layers' own stats objects (``DirectionStats``,
``QueueStats``, ``IpStats``, ``PlayerStats``, ``FastPathSummary``, the
capture ``Trace``), read after each pair run.  A few live objects that
a pair run does not return (simulators, links, pacers, repair
endpoints, TCP connections, fault controllers) are collected by
wrapping their constructors.

An entry point that a later version of the program renames or removes
is skipped and listed in ``Instrumentation.missing``: its layer then
reads zero instead of the benchmark failing.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter_ns

#: Flow-level fallback reasons (``repro.netsim.flowlevel.REASON_*``),
#: reported one metric each so every traced run prints the same names.
FALLBACK_REASONS = ("protocol", "cross-traffic", "no-route", "ttl",
                    "link-down", "tapped-router", "lossy-link",
                    "contention", "interleave", "blackout")

#: Layer entry points that get a span: (module, attribute path, layer).
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.netsim.engine", "Simulator.run", "netsim.engine"),
    ("repro.netsim.link", "_Direction.send", "netsim.link"),
    ("repro.netsim.link", "_Direction._finish_transmit", "netsim.link"),
    ("repro.netsim.link", "_Direction._deliver", "netsim.link"),
    ("repro.netsim.link", "_Direction._end_reservation", "netsim.link"),
    ("repro.netsim.node", "Node.receive", "netsim.node"),
    ("repro.netsim.routing", "RoutingTable.lookup", "netsim.routing"),
    ("repro.netsim.packet", "Packet.forwarded", "netsim.packet"),
    ("repro.netsim.ip", "IpLayer.send", "netsim.ip"),
    ("repro.netsim.ip", "IpLayer.receive", "netsim.ip"),
    ("repro.netsim.ip", "IpLayer._expire", "netsim.ip"),
    ("repro.netsim.udp", "UdpLayer._on_datagram", "netsim.udp"),
    ("repro.netsim.udp", "UdpSocket.send", "netsim.udp"),
    ("repro.netsim.tcp", "TcpLayer._on_datagram", "netsim.tcp"),
    ("repro.netsim.tcp", "TcpConnection.send_message", "netsim.tcp"),
    ("repro.netsim.tcp", "TcpConnection._on_rto", "netsim.tcp"),
    ("repro.netsim.flowlevel", "FlowLevelDirector.try_deliver",
     "netsim.flowlevel"),
    ("repro.netsim.flowlevel", "FlowLevelDirector._finish_virtual",
     "netsim.flowlevel"),
    ("repro.netsim.topology", "build_path_topology", "netsim.topology"),
    ("repro.tools.ping", "run_ping", "tools"),
    ("repro.tools.ping", "PingSession._send_probe", "tools"),
    ("repro.tools.ping", "PingSession._on_reply", "tools"),
    ("repro.tools.ping", "PingSession._on_timeout", "tools"),
    ("repro.tools.tracert", "run_tracert", "tools"),
    ("repro.tools.tracert", "TracerouteSession._probe_hop", "tools"),
    ("repro.tools.tracert", "TracerouteSession._on_result", "tools"),
    ("repro.tools.tracert", "TracerouteSession._on_timeout", "tools"),
    ("repro.servers.pacing", "Pacer._tick", "servers"),
    ("repro.servers.pacing", "Pacer.send_repair", "servers"),
    ("repro.servers.base", "StreamingServer._on_request", "servers"),
    ("repro.players.base", "StreamingClient._on_media", "players"),
    ("repro.players.base", "StreamingClient._on_response", "players"),
    ("repro.players.base", "StreamingClient._send_feedback", "players"),
    ("repro.players.base", "StreamingClient.finalize", "players"),
    ("repro.repair.receiver", "ReceiverRepair._tick", "players"),
    ("repro.capture.sniffer", "Sniffer._on_packet", "capture"),
    ("repro.capture.sniffer", "Sniffer.stop", "capture"),
    ("repro.core.fitting", "fit_profile", "core.fitting"),
    ("repro.experiments.scorecard", "run_scorecard",
     "experiments.scorecard"),
)

#: Calls counted without a span (too fine-grained to time).
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.netsim.addressing", "Subnet.__contains__", "subnet_contains"),
    ("repro.netsim.ip", "IpLayer._deliver_reassembled", "reassemblies"),
)

#: Objects collected at construction, read after each pair run.
COLLECT: Tuple[Tuple[str, str], ...] = (
    ("repro.netsim.engine", "Simulator"),
    ("repro.netsim.link", "Link"),
    ("repro.netsim.ip", "IpLayer"),
    ("repro.netsim.tcp", "TcpConnection"),
    ("repro.servers.pacing", "Pacer"),
    ("repro.repair.sender", "SenderRepair"),
    ("repro.repair.receiver", "ReceiverRepair"),
    ("repro.faults.controller", "FaultController"),
)

#: Every layer that records self time, in report order.
SELF_LAYERS = ("netsim.engine", "netsim.routing", "netsim.packet",
               "netsim.link", "netsim.node", "netsim.ip", "netsim.udp",
               "netsim.tcp", "netsim.flowlevel", "netsim.topology", "tools",
               "servers", "players", "capture", "experiments.runner",
               "experiments.figures", "experiments.scorecard",
               "core.fitting")

ROOT = "benchmark"

#: Attribute a traced pool worker sets on each result it returns.
WORKER_ATTR = "_studybench_worker"

#: Layers whose spans are kept one by one (the rest only as totals).
RECORDED = frozenset(("netsim.topology", "experiments.scorecard"))


def _metric(name, unit, better, moves, workload):
    return {"name": name, "unit": unit, "better": better,
            "moves": moves, "workload": workload}


_PACKET = "table1-packet"
_FAST = "table1-fastpath"

#: Every per-layer metric: its unit, direction, the end-to-end metric it
#: should move and the workload it should move it on.  BENCHMARK.json's
#: ``per_layer`` list is this table without the last two columns.
PER_LAYER: Tuple[Dict[str, str], ...] = (
    _metric("netsim.engine.events", "count", "lower", "study_s", _PACKET),
    _metric("netsim.engine.self_s", "s", "lower", "stream_s_per_s", _PACKET),
    _metric("netsim.engine.host_us_per_event", "us", "lower",
            "stream_s_per_s", _PACKET),
    _metric("netsim.routing.lookups", "count", "lower", "study_s", _PACKET),
    _metric("netsim.routing.self_s", "s", "lower", "stream_s_per_s",
            _PACKET),
    _metric("netsim.addressing.contains_per_lookup", "ratio", "lower",
            "study_s", _PACKET),
    _metric("netsim.packet.forwarded", "count", "lower", "study_s", _PACKET),
    _metric("netsim.packet.self_s", "s", "lower", "study_s", _PACKET),
    _metric("netsim.link.tx_packets", "count", "lower", "study_s", _PACKET),
    # Read from table1-packet's traced burst-loss leg (zero elsewhere).
    _metric("netsim.link.drops", "count", "lower", "study_s", _PACKET),
    _metric("netsim.link.self_s", "s", "lower", "study_s", _PACKET),
    _metric("netsim.queues.max_depth", "bytes", "lower", "study_s", _PACKET),
    _metric("netsim.node.self_s", "s", "lower", "study_s", _PACKET),
    _metric("netsim.ip.fragments", "count", "lower", "study_s", _PACKET),
    _metric("netsim.ip.reassemblies", "count", "lower", "study_s", _PACKET),
    _metric("netsim.ip.self_s", "s", "lower", "study_s", _PACKET),
    _metric("netsim.udp.self_s", "s", "lower", "study_s", _PACKET),
    _metric("netsim.tcp.self_s", "s", "lower", "study_s", _PACKET),
    # Read from table1-packet's traced burst-loss leg (zero elsewhere).
    _metric("netsim.tcp.retransmits", "count", "lower", "study_s", _PACKET),
    _metric("netsim.flowlevel.self_s", "s", "lower", "stream_s_per_s",
            _FAST),
    _metric("netsim.flowlevel.fast_share", "ratio", "higher",
            "stream_s_per_s", _FAST),
    _metric("netsim.flowlevel.events_saved", "count", "higher",
            "stream_s_per_s", _FAST),
) + tuple(
    _metric(f"netsim.flowlevel.fallback.{reason}", "count", "lower",
            "stream_s_per_s", _FAST)
    for reason in FALLBACK_REASONS
) + (
    _metric("netsim.topology.build_s", "s", "lower", "pair_mean_s", _PACKET),
    _metric("tools.self_s", "s", "lower", "pair_mean_s", _PACKET),
    _metric("servers.adus", "count", "higher", "study_s", _FAST),
    _metric("servers.self_s", "s", "lower", "study_s", _FAST),
    _metric("players.receipts", "count", "higher", "study_s", _FAST),
    _metric("players.self_s", "s", "lower", "study_s", _FAST),
    _metric("capture.records", "count", "higher", "peak_rss_mb", _PACKET),
    _metric("capture.self_s", "s", "lower", "study_s", _PACKET),
    # Read from table1-packet's traced burst-loss leg (zero elsewhere).
    _metric("repair.parity_sent", "count", "lower", "study_s", _PACKET),
    _metric("repair.nacks", "count", "lower", "study_s", _PACKET),
    _metric("repair.recovered", "count", "higher", "study_s", _PACKET),
    _metric("faults.fired", "count", "higher", "study_s", _PACKET),
    _metric("experiments.runner.self_s", "s", "lower", "pair_mean_s",
            _PACKET),
    _metric("experiments.figures.self_s", "s", "lower", "study_s", _FAST),
    _metric("experiments.scorecard.self_s", "s", "lower", "study_s", _FAST),
    _metric("core.fitting.self_s", "s", "lower", "study_s", _FAST),
    # From the traced two-worker leg of table1-packet's trace run; no
    # end-to-end metric runs the pool, so these move study_s only for a
    # user who passes jobs=N.
    _metric("experiments.parallel.pool_warm_s", "s", "lower", "setup_s",
            _PACKET),
    _metric("experiments.parallel.dispatch_s", "s", "lower", "study_s",
            _PACKET),
    _metric("experiments.parallel.result_bytes", "bytes", "lower",
            "study_s", _PACKET),
    _metric("experiments.parallel.merge_s", "s", "lower", "study_s",
            _PACKET),
    _metric("experiments.parallel.worker_busy_share", "ratio", "higher",
            "study_s", _PACKET),
    _metric("trace.overhead_share", "ratio", "lower", "study_s", _PACKET),
    _metric("trace.unattributed_share", "ratio", "lower", "study_s",
            _PACKET),
)


class Tracer:
    """Spans kept in memory: per-layer totals plus the coarse spans.

    Per-packet layers close hundreds of thousands of spans per sweep,
    so only their totals are kept; the root span, pair runs, figures and
    the ``RECORDED`` layers are also kept one by one with their parent,
    for the trace file written at the end.
    """

    def __init__(self) -> None:
        #: Open spans: ``[child_ns, span_id, parent_id]`` per frame.
        self.stack: List[list] = []
        #: layer -> [calls, inclusive ns, self ns]
        self.totals: Dict[str, List[int]] = {}
        self.counts: Dict[str, float] = {}
        #: Coarse spans: (id, parent id, layer, start ns, end ns).
        self.spans: List[Tuple[int, Optional[int], str, int, int]] = []
        self._next_id = 0

    def reset(self) -> None:
        """Zero everything in place (installed wrappers hold references)."""
        self.stack.clear()
        for totals in self.totals.values():
            totals[:] = [0, 0, 0]
        for name in self.counts:
            self.counts[name] = 0
        self.spans.clear()

    def layer_totals(self, layer: str) -> List[int]:
        return self.totals.setdefault(layer, [0, 0, 0])

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, layer: str, function: Callable,
             record: bool = False) -> Callable:
        """``function`` wrapped in a span of ``layer``."""
        stack = self.stack
        totals = self.layer_totals(layer)

        if not record:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                frame = [0, None, None]
                stack.append(frame)
                start = _clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    elapsed = _clock() - start
                    stack.pop()
                    totals[0] += 1
                    totals[1] += elapsed
                    totals[2] += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
            return wrapper

        @functools.wraps(function)
        def recorded(*args, **kwargs):
            with self.open(layer):
                return function(*args, **kwargs)
        return recorded

    def open(self, layer: str) -> "_Span":
        return _Span(self, layer)


class _Span:
    """A recorded span, used as a context manager."""

    __slots__ = ("tracer", "layer", "frame", "start")

    def __init__(self, tracer: Tracer, layer: str) -> None:
        self.tracer = tracer
        self.layer = layer

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        parent = next((frame[1] for frame in reversed(tracer.stack)
                       if frame[1] is not None), None)
        span_id = tracer._next_id
        tracer._next_id += 1
        self.frame = [0, span_id, parent]
        tracer.stack.append(self.frame)
        self.start = _clock()
        return self

    def __exit__(self, *exc) -> None:
        end = _clock()
        elapsed = end - self.start
        tracer = self.tracer
        tracer.stack.pop()
        totals = tracer.layer_totals(self.layer)
        totals[0] += 1
        totals[1] += elapsed
        totals[2] += elapsed - self.frame[0]
        if tracer.stack:
            tracer.stack[-1][0] += elapsed
        tracer.spans.append((self.frame[1], self.frame[2], self.layer,
                             self.start, end))


def _resolve(module_name: str, path: str):
    """``(owner, attribute, original)`` or None when absent."""
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = __import__(module_name, fromlist=["_"])
        except ImportError:
            return None
    owner = module
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attribute)
    else:
        original = getattr(owner, attribute, None)
    if original is None:
        return None
    return owner, attribute, original


class Instrumentation:
    """Installs the wrappers, harvests counts, and restores everything.

    ``install()`` patches every entry point in place — for a module
    level function also every ``repro`` module that imported it by
    name — and ``uninstall()`` puts each original object back.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.patched: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []
        self.collected: Dict[str, list] = {}
        #: Per-task worker records shipped home on pool results.
        self.tasks: List[Tuple[int, int]] = []

    # -- patching --------------------------------------------------------
    def _find(self, module_name: str, path: str):
        found = _resolve(module_name, path)
        if found is None:
            self.missing.append(f"{module_name}.{path}")
        return found

    def _patch(self, owner, attribute: str, original, replacement) -> None:
        setattr(owner, attribute, replacement)
        self.patched.append((owner, attribute, original))
        if isinstance(owner, type):
            return
        for name, module in list(sys.modules.items()):
            if (module is owner or not name.startswith("repro")
                    or module is None):
                continue
            if module.__dict__.get(attribute) is original:
                setattr(module, attribute, replacement)
                self.patched.append((module, attribute, original))

    def install(self) -> None:
        tracer = self.tracer
        for module_name, path, layer in SPANS:
            found = self._find(module_name, path)
            if found:
                self._patch(*found, tracer.span(layer, found[2],
                                                record=layer in RECORDED))
        for module_name, path, name in COUNTS:
            found = self._find(module_name, path)
            if found:
                self._patch(*found, self._counting(name, found[2]))
        for module_name, class_name in COLLECT:
            found = self._find(module_name, f"{class_name}.__init__")
            if found:
                self._patch(*found, self._collecting(class_name, found[2]))
        self._install_figures()
        self._install_pair_run()
        self._install_worker_task()

    def _counting(self, name: str, function: Callable) -> Callable:
        counts = self.tracer.counts
        counts.setdefault(name, 0)

        @functools.wraps(function)
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return counted

    def _collecting(self, class_name: str, init: Callable) -> Callable:
        bucket = self.collected.setdefault(class_name, [])

        @functools.wraps(init)
        def collecting_init(instance, *args, **kwargs):
            init(instance, *args, **kwargs)
            bucket.append(instance)
        return collecting_init

    def _install_figures(self) -> None:
        found = self._find("repro.experiments.figures", "ALL_FIGURES")
        if not found:
            return
        figures = found[2]
        for key, generate in list(figures.items()):
            figures[key] = self.tracer.span("experiments.figures", generate,
                                            record=True)
            self.patched.append((figures, key, generate))

    def _install_pair_run(self) -> None:
        found = self._find("repro.experiments.runner", "run_pair_experiment")
        if not found:
            return
        owner, attribute, original = found
        tracer = self.tracer

        @functools.wraps(original)
        def pair_run(*args, **kwargs):
            with tracer.open("experiments.runner"):
                result = original(*args, **kwargs)
            self.harvest(result)
            return result
        self._patch(owner, attribute, original, pair_run)

    def _install_worker_task(self) -> None:
        """Pool workers forked while installed ship their totals home."""
        found = self._find("repro.experiments.parallel", "_run_index")
        if not found:
            return
        owner, attribute, original = found
        tracer = self.tracer

        @functools.wraps(original)
        def worker_task(spec, index):
            tracer.reset()
            for bucket in self.collected.values():
                bucket.clear()
            start = _clock()
            result, snapshot = original(spec, index)
            result.__dict__[WORKER_ATTR] = {
                "totals": tracer.totals, "counts": tracer.counts,
                "task": (start, _clock())}
            return result, snapshot
        self._patch(owner, attribute, original, worker_task)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self.patched):
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)
        for bucket in self.collected.values():
            bucket.clear()

    def restored(self) -> bool:
        """True when every patched attribute holds its original again."""
        for owner, attribute, original in self.patched:
            if isinstance(owner, dict):
                current = owner[attribute]
            elif isinstance(owner, type):
                current = owner.__dict__.get(attribute)
            else:
                current = getattr(owner, attribute)
            if current is not original:
                return False
        return True

    # -- counts ----------------------------------------------------------
    def _take(self, class_name: str) -> list:
        bucket = self.collected.get(class_name, [])
        objects = bucket[:]
        bucket.clear()
        return objects

    def harvest(self, result) -> None:
        """Read one finished pair run's stats objects into the counts."""
        count = self.tracer.count
        for sim in self._take("Simulator"):
            count("netsim.engine.events", getattr(sim, "executed_events", 0))
        depth = self.tracer.counts.get("netsim.queues.max_depth", 0)
        for link in self._take("Link"):
            for end in (link.a, link.b):
                stats = link.direction_stats(end)
                count("netsim.link.tx_packets", stats.packets_sent)
                count("netsim.link.drops", stats.packets_lost)
                depth = max(depth, link.queue_stats(end).peak_bytes)
        self.tracer.counts["netsim.queues.max_depth"] = depth
        for ip in self._take("IpLayer"):
            count("netsim.ip.fragments", ip.stats.fragments_sent)
        for connection in self._take("TcpConnection"):
            count("netsim.tcp.retransmits",
                  getattr(connection, "retransmits", 0))
        for pacer in self._take("Pacer"):
            count("servers.adus", getattr(pacer, "datagrams_sent", 0))
        for sender in self._take("SenderRepair"):
            count("repair.parity_sent",
                  getattr(sender, "parity_groups_sent", 0))
        for receiver in self._take("ReceiverRepair"):
            count("repair.nacks", getattr(receiver, "nacks_sent", 0))
        for controller in self._take("FaultController"):
            count("faults.fired", getattr(controller, "executed", 0))
        for stats in (result.real_stats, result.wmp_stats):
            count("players.receipts", stats.packets_received)
            count("repair.recovered", stats.packets_recovered)
        count("capture.records", len(result.trace))
        summary = getattr(result, "fastpath", None)
        if summary is not None:
            count("flowlevel.packets_fast", summary.packets_fast)
            count("flowlevel.packets_fallback", summary.packets_fallback)
            count("netsim.flowlevel.events_saved", summary.events_saved)
            for reason, trains in summary.fallback_reasons:
                count(f"netsim.flowlevel.fallback.{reason}", trains)

    def absorb_workers(self, runs) -> None:
        """Fold the totals pool workers attached to their results."""
        for run in runs:
            shipped = run.__dict__.pop(WORKER_ATTR, None)
            if shipped is None:
                continue
            for layer, (calls, inclusive, own) in shipped["totals"].items():
                totals = self.tracer.layer_totals(layer)
                totals[0] += calls
                totals[1] += inclusive
                totals[2] += own
            for name, value in shipped["counts"].items():
                if name == "netsim.queues.max_depth":
                    self.tracer.counts[name] = max(
                        self.tracer.counts.get(name, 0), value)
                else:
                    self.tracer.count(name, value)
            self.tasks.append(shipped["task"])


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The layer part of the per-layer metrics, from a finished trace."""
    totals = tracer.totals
    counts = tracer.counts

    def self_s(layer: str) -> float:
        return totals.get(layer, [0, 0, 0])[2] / 1e9

    metrics = {f"{layer}.self_s": self_s(layer) for layer in SELF_LAYERS}
    events = counts.get("netsim.engine.events", 0)
    engine_inclusive = totals.get("netsim.engine", [0, 0, 0])[1] / 1e3
    metrics["netsim.engine.events"] = events
    metrics["netsim.engine.host_us_per_event"] = (
        engine_inclusive / events if events else 0.0)
    lookups = totals.get("netsim.routing", [0, 0, 0])[0]
    metrics["netsim.routing.lookups"] = lookups
    metrics["netsim.addressing.contains_per_lookup"] = (
        counts.get("subnet_contains", 0) / lookups if lookups else 0.0)
    metrics["netsim.packet.forwarded"] = totals.get(
        "netsim.packet", [0, 0, 0])[0]
    metrics["netsim.ip.reassemblies"] = counts.get("reassemblies", 0)
    metrics["netsim.topology.build_s"] = totals.get(
        "netsim.topology", [0, 0, 0])[1] / 1e9
    fast = counts.get("flowlevel.packets_fast", 0)
    fallback = counts.get("flowlevel.packets_fallback", 0)
    metrics["netsim.flowlevel.fast_share"] = (
        fast / (fast + fallback) if fast + fallback else 0.0)
    for name in ("netsim.link.tx_packets", "netsim.link.drops",
                 "netsim.queues.max_depth", "netsim.ip.fragments",
                 "netsim.tcp.retransmits", "netsim.flowlevel.events_saved",
                 "servers.adus", "players.receipts", "capture.records",
                 "repair.parity_sent", "repair.nacks", "repair.recovered",
                 "faults.fired"):
        metrics[name] = counts.get(name, 0)
    for reason in FALLBACK_REASONS:
        name = f"netsim.flowlevel.fallback.{reason}"
        metrics[name] = counts.get(name, 0)
    return metrics

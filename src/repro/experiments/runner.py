"""The paper's experiment methodology, end to end.

One *pair run* reproduces Section II.D for one clip pair: build the
path to a pair of co-located servers under sampled network conditions,
verify them with ping and tracert, start Ethereal (the sniffer), stream
the RealPlayer and MediaPlayer clips **simultaneously** from the two
servers to the one client, record application statistics with both
trackers, then ping/tracert again.  A *study* is the full sweep over
Table 1's thirteen pairs, each with freshly sampled conditions — the
corpus every figure draws from.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.capture.sniffer import Sniffer
from repro.capture.trace import Trace
from repro.core.fitting import fit_profile
from repro.core.turbulence import TurbulenceProfile
from repro.errors import ExperimentError
from repro.experiments.conditions import NetworkConditions, sample_conditions
from repro.experiments.datasets import build_table1_library
from repro.experiments.spec import StudySpec, study_spec
from repro.faults.controller import FaultController
from repro.media.clip import Clip
from repro.media.library import ClipPair, ClipSet, RateBand
from repro.netsim.addressing import IPAddress
from repro.netsim.engine import Simulator
from repro.netsim.rng import RandomStreams
from repro.netsim.routing import RouteManager
from repro.netsim.tcp import TcpReliability
from repro.netsim.topology import PathTopology, build_path_topology
from repro.experiments.progress import (
    PHASE_DONE,
    PHASE_START,
    Heartbeat,
    ProgressCallback,
)
from repro.players.base import PlayerRobustness
from repro.players.mediatracker import MediaTracker
from repro.players.realtracker import RealTracker
from repro.players.stats import PlayerStats
from repro.servers.realserver import RealServer
from repro.servers.scaling import MediaScalingPolicy
from repro.servers.wms import WindowsMediaServer
from repro.telemetry.core import Telemetry
from repro.telemetry.streaming import StreamingSink, StreamingSummary
from repro.tools.ping import PingReport, run_ping
from repro.tools.stability import StabilityVerdict, verify_stability
from repro.tools.tracert import TracerouteReport, run_tracert

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.flowlevel import FastPathSummary
    from repro.validate.checker import RunValidator

#: Below this many pair runs a parallel request silently downgrades to
#: sequential execution: the pool's fork/merge overhead exceeds the
#: win on small sweeps (BENCH_substrate.json: the 13-run study at
#: default size gains from workers, a 2-run one-set sweep does not).
PARALLEL_MIN_RUNS = 6

#: Seconds of media both players buffer before playout starts.
PREROLL_SECONDS = 5.0


@dataclass
class PairRunResult:
    """Everything one simultaneous-stream run produced."""

    set_number: int
    genre: str
    band: RateBand
    conditions: NetworkConditions
    real_clip: Clip
    wmp_clip: Clip
    real_stats: PlayerStats
    wmp_stats: PlayerStats
    trace: Trace
    real_server: IPAddress
    wmp_server: IPAddress
    ping_before: PingReport
    ping_after: PingReport
    tracert: TracerouteReport
    tracert_after: TracerouteReport
    stability: StabilityVerdict
    #: Flow-level fast-path outcome for this run, when the study opted
    #: in (``None`` on packet-level runs).
    fastpath: Optional["FastPathSummary"] = None

    # ------------------------------------------------------------------
    # Per-flow views
    # ------------------------------------------------------------------
    def real_flow(self) -> Trace:
        """The RealPlayer media packets of the shared capture."""
        return self._media_flow(self.real_server)

    def wmp_flow(self) -> Trace:
        """The MediaPlayer media packets of the shared capture."""
        return self._media_flow(self.wmp_server)

    def _media_flow(self, server: IPAddress) -> Trace:
        flow = self.trace.udp().flow(server)
        return flow.filter(lambda r: r.payload_kind == "media")

    def real_profile(self) -> TurbulenceProfile:
        return fit_profile(self.real_flow(), self.real_clip.encoded_kbps,
                           label=self.real_clip.label(),
                           stats=self.real_stats)

    def wmp_profile(self) -> TurbulenceProfile:
        return fit_profile(self.wmp_flow(), self.wmp_clip.encoded_kbps,
                           label=self.wmp_clip.label(),
                           stats=self.wmp_stats)

    @property
    def label(self) -> str:
        return f"set{self.set_number}-{self.band.short}"


@dataclass
class StudyResults:
    """All pair runs of one study sweep."""

    runs: List[PairRunResult] = field(default_factory=list)
    #: The shared telemetry facade the sweep ran under, when one was
    #: requested — its registry holds every run's metrics, scoped by a
    #: ``run=<label>`` context label.
    telemetry: Optional[Telemetry] = None
    #: How the sweep actually executed: "sequential", "parallel
    #: jobs=N", or the auto-downgrade note when a parallel request fell
    #: back to sequential on a small sweep.
    execution: str = "sequential"
    #: The online-folded study summary, when the sweep streamed (see
    #: :mod:`repro.telemetry.streaming`): every pair run folded into a
    #: fresh per-run summary, merged here in library order — identical
    #: bytes whether the sweep ran sequentially, on a pool, or came
    #: back from the disk cache.
    streaming: Optional[StreamingSummary] = None

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    def by_band(self, band: RateBand) -> List[PairRunResult]:
        return [run for run in self.runs if run.band == band]

    def rtt_samples(self) -> List[float]:
        """Every per-probe RTT across all runs' pings (Figure 1's data)."""
        samples: List[float] = []
        for run in self.runs:
            samples.extend(run.ping_before.rtts)
            samples.extend(run.ping_after.rtts)
        return samples

    def hop_samples(self) -> List[int]:
        """Per-run tracert hop counts (Figure 2's data)."""
        return [run.tracert.hop_count for run in self.runs]

    def loss_percent(self) -> float:
        """Aggregate ping loss across the study (paper: "near 0%")."""
        sent = sum(r.ping_before.sent + r.ping_after.sent for r in self.runs)
        received = sum(r.ping_before.received + r.ping_after.received
                       for r in self.runs)
        if sent == 0:
            return 0.0
        return 100.0 * (sent - received) / sent


def _fault_links(topology: PathTopology,
                 conditions: NetworkConditions) -> Dict[str, object]:
    """Map symbolic link roles onto the built path.

    ``access`` is the client's first hop; ``middle`` is the same link
    the topology builder treats as the lossy/jittery mid-path hop.
    """
    path_links = len(topology.links) - len(topology.servers)
    middle_index = min(conditions.hop_count // 2, path_links - 1)
    return {"access": topology.links[0],
            "middle": topology.links[middle_index]}


def run_pair_experiment(clip_set: ClipSet, pair: ClipPair, seed: int,
                        conditions: Optional[NetworkConditions] = None,
                        telemetry: Optional[Telemetry] = None,
                        validate: Optional["RunValidator"] = None,
                        spec: Optional[StudySpec] = None,
                        **options: object) -> PairRunResult:
    """Run the simultaneous-stream methodology for one clip pair.

    Args:
        seed: fully determines the run (topology randomness, server
            packetization draws, jitter).
        conditions: override the sampled network conditions.
        telemetry: optional facade; bound to this run's simulator so
            every instrumented layer (links, IP, pacers, buffers)
            reports into it.
        validate: optional :class:`~repro.validate.checker.RunValidator`;
            its invariant sweep runs once the streams are done (after
            the post-run stability check, before results assemble).
            Validation schedules nothing, so the run itself is
            byte-identical with or without it.
        spec: the study's :class:`~repro.experiments.spec.StudySpec`,
            whose fields document what each option arms; a pair run
            reads only its option fields (``seed`` and ``conditions``
            above are the run's own).  ``options`` are spec field
            names (``scenario=``, ``fast_path=``, ...), folded into
            ``spec`` (or a default one) once, here.

    Raises:
        ExperimentError: if a stream never finishes within the safety
            horizon (indicates a modeling bug, not a network condition).
            Under a fault scenario, congestion control, or ABR an
            unfinished stream is an expected outcome and is finalized
            deterministically instead.
            Also raised by the spec for an option combination no run
            can honor.
        ValidationError: if ``validate`` finds violations and is
            configured to raise.
    """
    spec = study_spec(spec, **options)
    scenario, cc, abr, repair = spec.scenario, spec.cc, spec.abr, spec.repair
    cc_armed, repair_armed = spec.cc_armed, spec.repair_armed
    sim = Simulator(seed=seed, telemetry=telemetry, validate=validate,
                    fast_path=spec.fast_path)
    if conditions is None:
        conditions = sample_conditions(sim.streams.stream("conditions"))
    topology = build_path_topology(
        sim, hop_count=conditions.hop_count, rtt=conditions.rtt,
        loss_probability=conditions.loss_probability,
        jitter_std=conditions.jitter_std)

    real_host, wmp_host = topology.servers[0], topology.servers[1]
    if scenario is not None:
        # Robustness stack, armed only for fault runs so that plain
        # runs stay event-for-event identical to the pre-fault code.
        reliability = TcpReliability()
        for node in (topology.client, real_host, wmp_host):
            node.tcp.reliability = reliability
        RouteManager(sim, [topology.client] + list(topology.routers)
                     + list(topology.servers)).attach()
    if abr is not None:
        from repro.media.clip import PlayerFamily
        from repro.servers.abr import AbrServer

        # The ABR ladder *is* the adaptation mechanism; the 2002
        # media-scaling policy never rides along.
        real_server = AbrServer(real_host, family=PlayerFamily.REAL,
                                config=abr)
        wms = AbrServer(wmp_host, family=PlayerFamily.WMP, config=abr)
    else:
        scaling = MediaScalingPolicy if scenario is not None else None
        cc_factory = cc.build if cc_armed else None
        repair_factory = None
        if repair_armed:
            from repro.repair.sender import SenderRepair

            repair_factory = lambda: SenderRepair(repair)  # noqa: E731
        real_server = RealServer(real_host, scaling_policy_factory=scaling,
                                 cc_factory=cc_factory,
                                 repair_factory=repair_factory)
        wms = WindowsMediaServer(wmp_host, scaling_policy_factory=scaling,
                                 cc_factory=cc_factory,
                                 repair_factory=repair_factory)
    real_server.add_clip(pair.real)
    wms.add_clip(pair.wmp)

    # Section II.D: verify the path before the run.
    ping_before = run_ping(topology.client, real_host.address)
    tracert_report = run_tracert(topology.client, real_host.address,
                                 probes_per_hop=1)

    sniffer = Sniffer(topology.client).start()
    robustness = PlayerRobustness() if scenario is not None else None
    feedback = 1.0 if scenario is not None else None
    if cc_armed:
        # Congestion control needs the report loop even on clean runs.
        feedback = cc.feedback_interval
    if abr is not None:
        from repro.media.clip import PlayerFamily
        from repro.players.abrtracker import AbrTracker

        # ABR always keeps the watchdog armed: a lost segment-boundary
        # datagram would otherwise park the request loop forever.
        abr_robustness = robustness or PlayerRobustness()
        real_player = AbrTracker(topology.client, real_host.address,
                                 family=PlayerFamily.REAL, config=abr,
                                 preroll_seconds=PREROLL_SECONDS,
                                 feedback_interval=feedback or 1.0,
                                 robustness=abr_robustness)
        wmp_player = AbrTracker(topology.client, wmp_host.address,
                                family=PlayerFamily.WMP, config=abr,
                                preroll_seconds=PREROLL_SECONDS,
                                feedback_interval=feedback or 1.0,
                                robustness=abr_robustness)
    else:
        player_repair = repair if repair_armed else None
        real_player = RealTracker(topology.client, real_host.address,
                                  preroll_seconds=PREROLL_SECONDS,
                                  feedback_interval=feedback,
                                  robustness=robustness,
                                  repair=player_repair)
        wmp_player = MediaTracker(topology.client, wmp_host.address,
                                  preroll_seconds=PREROLL_SECONDS,
                                  feedback_interval=feedback,
                                  robustness=robustness,
                                  repair=player_repair)
    real_player.play(pair.real.title)
    wmp_player.play(pair.wmp.title)

    if scenario is not None:
        FaultController(
            sim, scenario,
            links=_fault_links(topology, conditions),
            servers={"real": real_server, "wmp": wms},
            surge_endpoints=(wmp_host, topology.client),
            reference_duration=clip_set.duration).arm()

    horizon = sim.now + clip_set.duration * 2.0 + 120.0
    sim.run(until=horizon)
    if not (real_player.done and wmp_player.done):
        if scenario is None and abr is None and not cc_armed:
            raise ExperimentError(
                f"streams did not finish by t={horizon:.0f}s for "
                f"set {clip_set.number} {pair.band.value}")
        # A fault, a throttling controller, or a lost ABR boundary can
        # legitimately leave a stream unfinished; close the books
        # deterministically (eos_timeout event, stop at last arrival).
        for player in (real_player, wmp_player):
            if not player.done:
                player.finalize()
    trace = sniffer.stop()

    # ...and verify it again after (Section II.D).
    ping_after = run_ping(topology.client, real_host.address)
    tracert_after = run_tracert(topology.client, real_host.address,
                                probes_per_hop=1)
    stability = verify_stability(ping_before, ping_after,
                                 tracert_report, tracert_after)

    if validate is not None:
        validate.check_run(run=f"set{clip_set.number}-{pair.band.short}",
                           seed=seed)

    return PairRunResult(
        set_number=clip_set.number, genre=clip_set.genre, band=pair.band,
        conditions=conditions, real_clip=pair.real, wmp_clip=pair.wmp,
        real_stats=real_player.stats, wmp_stats=wmp_player.stats,
        trace=trace, real_server=real_host.address,
        wmp_server=wmp_host.address, ping_before=ping_before,
        ping_after=ping_after, tracert=tracert_report,
        tracert_after=tracert_after, stability=stability,
        fastpath=(sim.fast_path.summary()
                  if sim.fast_path is not None else None))


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``jobs`` request: 0 means one worker per CPU.

    Raises:
        ExperimentError: if ``jobs`` is negative.
    """
    if jobs < 0:
        raise ExperimentError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def study_conditions(seed: int, index: int,
                     loss_probability: float = 0.0) -> NetworkConditions:
    """The network conditions run ``index`` of a sweep samples.

    Derived straight from ``RandomStreams(seed + index)`` — the same
    named stream a run's own simulator would hand out, so the draws are
    identical to sampling inside the run, and any process (sequential
    loop, pool worker, a test) can reproduce them independently.
    """
    rng = RandomStreams(seed + index).stream("conditions")
    return sample_conditions(rng, loss_probability=loss_probability)


def run_study(spec: Optional[StudySpec] = None, *,
              telemetry: Optional[Telemetry] = None,
              jobs: int = 1,
              validate: Optional["RunValidator"] = None,
              min_parallel_runs: int = PARALLEL_MIN_RUNS,
              stream: Optional[StreamingSummary] = None,
              progress: Optional[ProgressCallback] = None,
              **options: object) -> StudyResults:
    """Run the full Table 1 sweep (the corpus behind every figure).

    Args:
        spec: what to sweep — a
            :class:`~repro.experiments.spec.StudySpec` (library, master
            seed, duration scale, loss, and the opt-in options applied
            to every pair run; run ``i`` uses ``seed + i``).
            ``options`` are spec field names (``seed=``,
            ``library=``, ``fast_path=``, ...), folded into ``spec``
            (or a default one) once, here.  Every option is pure data,
            so pool workers rebuild their fault controllers, repair
            stacks and directors from the spec independently.
        telemetry: optional shared facade.  One registry and one event
            bus serve every pair run; a ``run=<label>`` context label
            keeps the runs' instruments apart, and the facade comes
            back on ``StudyResults.telemetry``.
        jobs: worker processes to fan the pair runs across (each run
            is an independent simulation fully determined by ``seed +
            index``).  1 (the default) runs in-process; 0 means one
            worker per CPU.  Results are identical to sequential
            execution — runs merge back in library order, and worker
            telemetry folds into the shared facade post-hoc (the
            facade's profiler, being wall-clock, stays parent-only).
        validate: optional :class:`~repro.validate.checker.RunValidator`
            shared by every pair run of the sweep; each run gets an
            invariant sweep at its end.  Sequential execution only —
            the validator holds live object references and cannot
            cross a process boundary.
        min_parallel_runs: sweeps smaller than this auto-downgrade a
            ``jobs > 1`` request to sequential execution (fork overhead
            beats the win on small sweeps); the decision lands on
            ``StudyResults.execution``.  Pass 0 to force the pool.
        stream: optional :class:`~repro.telemetry.streaming.StreamingSummary`
            to fold the sweep into online.  Each pair run folds into a
            fresh ``stream.spawn()`` via a per-run bus sink (no event
            buffering), and the per-run summaries merge into ``stream``
            in library order — byte-identical across sequential,
            parallel, and cached execution.  Works with or without a
            ``telemetry`` facade; the merged summary also lands on
            ``StudyResults.streaming``.
        progress: optional heartbeat consumer (see
            :mod:`repro.experiments.progress`); called with one
            :class:`Heartbeat` at each pair run's start and end, from
            the sequential loop or relayed from pool workers.

    Raises:
        ExperimentError: for ``validate`` combined with ``jobs > 1``,
            and from the spec for an option combination no run can
            honor.
    """
    spec = study_spec(spec, **options)
    if spec.library is None:
        spec = replace(spec, library=build_table1_library(
            duration_scale=spec.duration_scale))
    jobs = resolve_jobs(jobs)
    pairs = spec.library.all_pairs()
    if validate is not None and jobs > 1:
        raise ExperimentError(
            "validation requires sequential execution (jobs=1): the "
            "validator inspects live simulation objects and cannot "
            "cross a worker-process boundary")
    execution = "sequential"
    if jobs > 1 and len(pairs) > 1:
        if len(pairs) >= min_parallel_runs:
            from repro.experiments.parallel import run_study_parallel

            results = run_study_parallel(spec, telemetry=telemetry,
                                         jobs=jobs, stream=stream,
                                         progress=progress)
            results.execution = f"parallel jobs={jobs}"
            return results
        execution = (f"sequential (auto-downgraded from jobs={jobs}: "
                     f"{len(pairs)} runs < {min_parallel_runs})")
    results = StudyResults(telemetry=telemetry, execution=execution)
    # A streamed sweep needs a live bus even when the caller brought no
    # facade: an internal one with no sinks stays inactive except while
    # a per-run streaming sink is attached.
    facade = telemetry
    if stream is not None and facade is None:
        facade = Telemetry(sinks=[])
    total = len(pairs)
    for index, (clip_set, pair) in enumerate(pairs):
        conditions = study_conditions(
            spec.seed, index, loss_probability=spec.loss_probability)
        label = f"set{clip_set.number}-{pair.band.short}"
        if telemetry is not None:
            telemetry.set_context(run=label)
        if progress is not None:
            progress(Heartbeat(index=index, total=total, label=label,
                               phase=PHASE_START))
        per_run = None
        sink = None
        span_base = 0
        if stream is not None:
            per_run = stream.spawn()
            sink = StreamingSink(per_run)
            if facade.spans is not None:
                span_base = len(facade.spans.spans)
            facade.bus.attach(sink)
        try:
            results.runs.append(run_pair_experiment(
                clip_set, pair, seed=spec.seed + index,
                conditions=conditions, telemetry=facade,
                validate=validate, spec=spec))
        finally:
            if sink is not None:
                facade.bus.detach(sink)
        if per_run is not None:
            if facade.spans is not None:
                per_run.fold_spans(facade.spans.spans[span_base:])
            stream.merge(per_run)
        if progress is not None:
            progress(Heartbeat(
                index=index, total=total, label=label, phase=PHASE_DONE,
                sim_time_frac=1.0,
                events_folded=per_run.events_folded if per_run else 0,
                faults_fired=(per_run.rollup.faults_fired
                              if per_run else 0),
                violations=(len(validate.violations)
                            if validate is not None else 0),
                rollup=per_run.rollup.as_dict() if per_run else None))
    if telemetry is not None:
        telemetry.clear_context()
    results.streaming = stream
    return results

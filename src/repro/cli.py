"""Command-line interface.

``python -m repro <command>`` (or the ``repro`` console script):

* ``study``      — run the Table 1 sweep and print every artifact.
* ``figure ID``  — regenerate one table/figure (``fig01``..``fig15``,
  ``table1``, ``sec4``).
* ``table1``     — print the clip table without running experiments.
* ``generate``   — synthesize a Section IV flow; optionally export
  pcap/CSV.
* ``pcap-info``  — summarize any libpcap file (fragmentation, rates).
* ``telemetry``  — run the sweep fully instrumented; print the metric
  summary and export JSON / JSON-lines / CSV artifacts.
* ``spans``      — run the sweep with causal span tracing; print the
  per-hop waterfalls of the slowest ADUs and the WMS-vs-RealServer
  latency-attribution table; export Chrome-trace / JSONL artifacts.
* ``faults``     — inject a named fault scenario into one pair run and
  print the recovery report (``--list`` shows the scenarios).
* ``cc``         — run one clip set under a named congestion
  controller (``repro.cc``) and print the controller's state summary
  (``--list`` shows the controllers).
* ``repair``     — run one clip set with the loss-repair stack armed
  (``repro.repair``: XOR parity, NACK retransmission, deadline-aware
  scheduling) under a fault scenario and print the repair ledger and
  per-viewer QoE scores.
* ``validate``   — run a seeded study with every runtime invariant
  checked (``repro.validate``); ``--study`` runs the differential
  oracle (sequential vs parallel vs cache), ``--golden`` re-checks the
  pinned golden traces, ``--cc``/``--abr`` pick a transport.
  Non-zero exit on any violation or divergence.
* ``watch``      — replay a streamed study's per-run records (``repro
  study --stream-jsonl``) through rolling z-score baselines; exits 1
  when a rebuffer/loss/delivery anomaly rule trips, so CI can gate on
  study health.
* ``cache``      — inspect or clear the persistent study cache.

``study --progress`` renders a live status line (runs done/total, ETA,
cache state, violations) from heartbeat records — sequential or pool
workers alike — with a deterministic non-TTY fallback; ``study
--stream-jsonl PATH`` writes each run's online-folded turbulence
roll-up as one JSON line for ``repro watch``.

``scorecard --modern`` re-runs the sweep under each transport (2002
push, AIMD, delay-gradient, ABR ladder) and prints the figure-for-
figure then-vs-now table (optionally an SVG chart).

Studies fan out across worker processes with ``--jobs N`` (0 = one per
CPU) and, for ``repro study``, persist to the on-disk cache so a second
invocation in a fresh process skips the simulation entirely.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro._version import __version__


class _BadArgument(Exception):
    """Bad option value, from parsing or a handler's :func:`_checked`;
    :func:`main` returns 2 (``argparse.ArgumentTypeError`` would exit
    the process instead)."""


def _finite(name: str, positive: bool = False):
    """argparse type for ``name``: a finite float (no nan/inf), and
    above zero when ``positive``."""
    kind = "a finite positive number" if positive else "a finite number"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or (positive and value <= 0):
            raise _BadArgument(f"{name} must be {kind}, got {text}")
        return value

    return parse


_scale = _finite("--scale", positive=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'MediaPlayer vs RealPlayer: A "
                    "Comparison of Network Turbulence' (WPI 2002)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    study = commands.add_parser(
        "study", help="run the full Table 1 sweep and print the report")
    study.add_argument("--seed", type=int, default=2002)
    study.add_argument("--scale", type=_scale, default=1.0,
                       help="clip duration scale (use <1 for a fast run)")
    study.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep "
                            "(0 = one per CPU; default 1, sequential)")
    study.add_argument("--no-cache", action="store_true",
                       help="always simulate; skip the study caches")
    study.add_argument("--fast-path", nargs="?", const="on",
                       choices=["on", "strict"], default=None,
                       dest="fast_path",
                       help="deliver uncontended packet trains "
                            "analytically instead of event-per-packet "
                            "(see repro.netsim.flowlevel); 'strict' "
                            "accepts only provably-exact trains")
    study.add_argument("--progress", action="store_true",
                       help="live status line while the sweep runs "
                            "(single in-place line on a TTY; one "
                            "deterministic line per run otherwise)")
    study.add_argument("--stream-jsonl", default=None,
                       help="write each run's online-folded turbulence "
                            "roll-up as one JSON line (feeds `repro "
                            "watch`); implies a fresh simulation")
    study.add_argument("--plots", action="store_true",
                       help="include ASCII plots")
    study.add_argument("--html",
                       help="also write a standalone HTML report")

    figure = commands.add_parser(
        "figure", help="regenerate one paper artifact")
    figure.add_argument("figure_id",
                        help="fig01..fig15, table1, or sec4")
    figure.add_argument("--seed", type=int, default=2002)
    figure.add_argument("--scale", type=_scale, default=1.0)
    figure.add_argument("--plots", action="store_true")
    figure.add_argument("--csv", help="also write the data as CSV")

    probe = commands.add_parser(
        "probe", help="TCP-friendliness probe (paper §VI)")
    probe.add_argument("family", choices=["real", "wmp"])
    probe.add_argument("kbps", type=_finite("kbps", positive=True))
    probe.add_argument("loss", type=_finite("loss"),
                       help="loss fraction, e.g. 0.05")
    probe.add_argument("--rtt", type=_finite("--rtt", positive=True),
                       default=0.200)
    probe.add_argument("--duration",
                       type=_finite("--duration", positive=True),
                       default=30.0)
    probe.add_argument("--scaling", action="store_true",
                       help="enable media scaling with receiver reports")

    boundary = commands.add_parser(
        "boundary", help="multi-client egress study (paper §VI)")
    boundary.add_argument("--clients", type=int, default=4)
    boundary.add_argument("--duration",
                          type=_finite("--duration", positive=True),
                          default=40.0)
    boundary.add_argument("--kbps", type=_finite("--kbps", positive=True),
                          default=150.0)
    boundary.add_argument("--seed", type=int, default=2002)

    scorecard = commands.add_parser(
        "scorecard", help="check every paper claim; nonzero on failure "
                          "(--modern: then-vs-now transport comparison)")
    scorecard.add_argument("--seed", type=int, default=2002)
    scorecard.add_argument("--scale", type=_scale, default=1.0)
    scorecard.add_argument("--modern", action="store_true",
                           help="compare the 2002 transports against "
                                "AIMD / delay-gradient congestion "
                                "control and the ABR ladder")
    scorecard.add_argument("--jobs", type=int, default=1,
                           help="worker processes per transport study "
                                "(--modern only; 0 = one per CPU)")
    scorecard.add_argument("--transports", default=None,
                           help="comma-separated transport subset for "
                                "--modern (default: 2002,aimd,gcc,abr)")
    scorecard.add_argument("--svg", default=None,
                           help="write the --modern per-set delivered-"
                                "rate chart as SVG")

    telemetry = commands.add_parser(
        "telemetry", help="run the Table 1 sweep with telemetry enabled "
                          "and summarize/export what it saw")
    telemetry.add_argument("--seed", type=int, default=2002)
    telemetry.add_argument("--scale", type=_scale, default=1.0,
                           help="clip duration scale (use <1 for a fast run)")
    telemetry.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the sweep (0 = one "
                                "per CPU); merged telemetry is identical "
                                "to a sequential run's")
    telemetry.add_argument("--json",
                           help="write the deterministic JSON summary")
    telemetry.add_argument("--events",
                           help="write the trace-event stream as JSON lines")
    telemetry.add_argument("--series-csv",
                           help="write gauge time series (queue depth, "
                                "buffer occupancy) as CSV")
    telemetry.add_argument("--profile", action="store_true",
                           help="also profile the event loop (wall-clock "
                                "numbers; excluded from exports)")
    telemetry.add_argument("--top", type=int, default=12,
                           help="rows shown per summary section")
    telemetry.add_argument("--ring-capacity", type=int, default=None,
                           help="memory-ring capacity in events "
                                "(default 262144; 0 = unbounded); a "
                                "dropped=N warning prints if the ring "
                                "overflows")

    spans = commands.add_parser(
        "spans", help="run the sweep with span tracing; print per-hop "
                      "waterfalls and the latency-attribution table")
    spans.add_argument("--seed", type=int, default=2002)
    spans.add_argument("--scale", type=_scale, default=1.0,
                       help="clip duration scale (use <1 for a fast run)")
    spans.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep (0 = one per "
                            "CPU); the merged span forest is identical "
                            "to a sequential run's")
    spans.add_argument("--top", type=int, default=5,
                       help="slowest ADUs rendered as waterfalls")
    spans.add_argument("--json",
                       help="write the attribution summary as JSON")
    spans.add_argument("--chrome-trace",
                       help="write the span forest as Chrome trace-event "
                            "JSON (load in Perfetto or chrome://tracing)")
    spans.add_argument("--jsonl",
                       help="write the span forest as JSON lines")

    faults = commands.add_parser(
        "faults", help="run one pair experiment under a fault scenario "
                       "and print the recovery report")
    faults.add_argument("scenario", nargs="?", default="link-flap",
                        help="scenario name (see --list); "
                             "default: link-flap")
    faults.add_argument("--list", action="store_true",
                        dest="list_scenarios",
                        help="list the known scenarios and exit")
    faults.add_argument("--seed", type=int, default=2002)
    faults.add_argument("--scale", type=_scale, default=0.25,
                        help="clip duration scale (default 0.25: the "
                             "scenario's event times scale with it)")
    faults.add_argument("--events",
                        help="write the run's trace-event stream as "
                             "JSON lines")
    faults.add_argument("--repair", action="store_true",
                        help="also arm the default loss-repair stack; "
                             "the report gains a loss-repair line")

    cc = commands.add_parser(
        "cc", help="run one clip set under a congestion controller and "
                   "print its state summary")
    cc.add_argument("controller", nargs="?", default=None,
                    help="controller name (see --list)")
    cc.add_argument("--list", action="store_true",
                    dest="list_controllers",
                    help="list the known controllers and exit")
    cc.add_argument("--seed", type=int, default=2002)
    cc.add_argument("--scale", type=_scale, default=0.12,
                    help="clip duration scale (default 0.12: one short "
                         "set is enough to watch a controller move)")
    cc.add_argument("--set", type=int, default=3, dest="set_number",
                    help="Table 1 clip set to stream (default 3)")

    repair = commands.add_parser(
        "repair", help="run one clip set with the loss-repair stack "
                       "armed and print the repair/QoE report")
    repair.add_argument("--seed", type=int, default=2002)
    repair.add_argument("--scale", type=_scale, default=0.12,
                        help="clip duration scale (default 0.12: one "
                             "short set is enough to watch repair work)")
    repair.add_argument("--set", type=int, default=3, dest="set_number",
                        help="Table 1 clip set to stream (default 3)")
    repair.add_argument("--faults", default="burst-loss",
                        dest="fault_scenario",
                        help="fault scenario driving the loss (see "
                             "`repro faults --list`; default burst-loss; "
                             "'none' for a clean run)")
    repair.add_argument("--fec-group", type=int, default=8,
                        help="media datagrams per XOR parity group "
                             "(0 disables FEC; default 8)")
    repair.add_argument("--no-nack", action="store_true",
                        help="disable the NACK/retransmission loop "
                             "(parity-only repair)")
    repair.add_argument("--json",
                        help="write the repair/QoE summary as JSON")

    validate = commands.add_parser(
        "validate", help="check a seeded study against the runtime "
                         "invariant catalog; nonzero on any violation")
    validate.add_argument("--seed", type=int, default=2002)
    validate.add_argument("--scale", type=_scale, default=0.25,
                          help="clip duration scale (default 0.25: the "
                               "invariants hold at any scale)")
    validate.add_argument("--set", type=int, default=None, dest="set_number",
                          help="restrict to one Table 1 clip set "
                               "(default: the full sweep)")
    validate.add_argument("--faults", default=None, dest="fault_scenario",
                          help="also arm a named fault scenario "
                               "(see `repro faults --list`)")
    validate.add_argument("--study", action="store_true",
                          dest="differential",
                          help="differential oracle: run the study "
                               "sequentially, in parallel, and through "
                               "the disk cache, and diff every surface")
    validate.add_argument("--jobs", type=int, default=2,
                          help="worker processes for the parallel leg "
                               "of --study (default 2)")
    validate.add_argument("--golden", action="store_true",
                          help="re-run the pinned golden scenarios and "
                               "diff their digests")
    validate.add_argument("--cc", default=None, dest="cc_kind",
                          help="arm a congestion controller "
                               "(see `repro cc --list`)")
    validate.add_argument("--abr", action="store_true",
                          help="run on the ABR segment-ladder transport")
    validate.add_argument("--repair", action="store_true",
                          help="arm the default loss-repair stack")
    validate.add_argument("--fast-path", nargs="?", const="on",
                          choices=["on", "strict"], default=None,
                          dest="fast_path",
                          help="arm the flow-level fast path so the "
                               "fastpath-equivalence invariant refolds "
                               "its train ledger")

    watch = commands.add_parser(
        "watch", help="flag anomalies in a streamed study's per-run "
                      "records; nonzero exit when a rule trips")
    watch.add_argument("path",
                       help="JSON-lines file from `repro study "
                            "--stream-jsonl`")
    watch.add_argument("--metric", default=None, dest="metrics",
                       help="comma-separated metrics to watch "
                            "(default: rebuffer_ratio,loss_rate)")
    watch.add_argument("--z", type=_finite("--z"), default=3.0,
                       help="z-score threshold against the rolling "
                            "baseline (default 3.0)")
    watch.add_argument("--window", type=int, default=8,
                       help="rolling-baseline window in runs (default 8)")
    watch.add_argument("--min-baseline", type=int, default=3,
                       help="runs required before a rule may trip "
                            "(default 3)")
    watch.add_argument("--min-delta", type=_finite("--min-delta"),
                       default=0.02,
                       help="absolute deviation floor so flat baselines "
                            "never page on numeric dust (default 0.02)")
    watch.add_argument("--follow", action="store_true",
                       help="keep tailing the file for appended records")
    watch.add_argument("--idle-timeout", type=_finite("--idle-timeout"),
                       default=5.0,
                       help="with --follow: stop after this many "
                            "seconds without new records (default 5)")

    cache = commands.add_parser(
        "cache", help="inspect or clear the persistent study cache")
    cache.add_argument("action", choices=["info", "clear"], nargs="?",
                       default="info")

    pool = commands.add_parser(
        "pool", help="inspect or stop the persistent study worker pool")
    pool.add_argument("action", choices=["info", "shutdown"], nargs="?",
                      default="info")

    commands.add_parser("table1", help="print Table 1 (no simulation)")

    generate = commands.add_parser(
        "generate", help="synthesize a Section IV flow")
    generate.add_argument("family", choices=["real", "wmp"])
    generate.add_argument("kbps", type=_finite("kbps", positive=True))
    generate.add_argument("duration",
                          type=_finite("duration", positive=True))
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--pcap", help="write the flow as libpcap")
    generate.add_argument("--csv", help="write the flow as trace CSV")

    pcap_info = commands.add_parser(
        "pcap-info", help="summarize a libpcap file")
    pcap_info.add_argument("path")

    return parser


def _usage_error(message: str) -> int:
    """Report a bad argument on stderr; exit status 2, like argparse."""
    print(message, file=sys.stderr)
    return 2


def _check_sweep_args(args: argparse.Namespace) -> Optional[int]:
    """Shared ``--jobs`` sanity for the sweep commands."""
    if getattr(args, "jobs", 0) < 0:
        return _usage_error(f"--jobs must be >= 0, got {args.jobs}")
    return None


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``, with any ``ReproError`` it raises — an
    unknown name, a bad set number, a :class:`StudySpec` option
    combination no run can honor — turned into exit status 2."""
    from repro.errors import ReproError

    try:
        return build(*args, **kwargs)
    except ReproError as exc:
        raise _BadArgument(f"error: {exc}") from None


def _fast_path(mode: Optional[str]):
    """The ``--fast-path[=strict]`` option as a config (None when off)."""
    if mode is None:
        return None
    from repro.netsim.flowlevel import FlowLevelConfig

    return FlowLevelConfig(strict=(mode == "strict"))


def _describe(spec) -> str:
    """A header line's parameters: seed, scale, then every option set."""
    notes = [f"seed {spec.seed}", f"scale {spec.duration_scale}"]
    if spec.scenario is not None:
        notes.append(f"faults {spec.scenario.name}")
    if spec.cc is not None:
        notes.append(f"cc {spec.cc.kind}")
    if spec.abr is not None:
        notes.append("abr")
    if spec.repair is not None:
        notes.append("repair")
    if spec.fast_path is not None:
        notes.append("fast-path "
                     + ("strict" if spec.fast_path.strict else "on"))
    return ", ".join(notes)


def _cmd_study(args: argparse.Namespace) -> int:
    import json as json_module
    import resource
    import time

    from repro.experiments.report import build_report
    from repro.experiments.runner import run_study
    from repro.experiments.spec import StudySpec

    bad = _check_sweep_args(args)
    if bad is not None:
        return bad
    spec = _checked(StudySpec, seed=args.seed, duration_scale=args.scale,
                    fast_path=_fast_path(args.fast_path))
    record_stream = None
    if args.stream_jsonl:
        try:
            record_stream = open(args.stream_jsonl, "w")
        except OSError as exc:
            return _usage_error(f"cannot write {args.stream_jsonl}: {exc}")
    callbacks = []
    renderer = None
    if args.progress:
        from repro.experiments.progress import ProgressRenderer

        renderer = ProgressRenderer(
            stream=sys.stderr,
            cache_note="off" if args.no_cache else "cold")
        callbacks.append(renderer)
    if record_stream is not None:
        from repro.experiments.progress import PHASE_DONE

        # Parallel workers finish out of order; hold records until every
        # earlier run has been written so the tap is byte-identical to a
        # sequential sweep (and `repro watch` baselines stay ordered).
        held = {}
        next_record = [0]

        def write_record(beat) -> None:
            if beat.phase != PHASE_DONE or beat.rollup is None:
                return
            record = {"index": beat.index, "label": beat.label,
                      "events_folded": beat.events_folded,
                      "violations": beat.violations}
            record.update(beat.rollup)
            held[beat.index] = record
            while next_record[0] in held:
                record_stream.write(json_module.dumps(
                    held.pop(next_record[0]), sort_keys=True) + "\n")
                next_record[0] += 1
            record_stream.flush()

        callbacks.append(write_record)
    progress = None
    if callbacks:
        def progress(beat) -> None:
            for callback in callbacks:
                callback(beat)
    streaming = bool(args.progress or args.stream_jsonl)
    started = time.perf_counter()
    try:
        if args.no_cache or args.stream_jsonl:
            # --stream-jsonl implies a fresh simulation: per-run records
            # cannot be replayed out of a cached sweep.
            stream = None
            if streaming:
                from repro.telemetry.streaming import StreamingSummary

                stream = StreamingSummary()
            study = run_study(spec, jobs=args.jobs, stream=stream,
                              progress=progress)
            source = ("cache off" if args.no_cache
                      else "cache bypassed (--stream-jsonl)")
        else:
            from repro.experiments.cache import load_or_run_study

            study, origin = load_or_run_study(spec, jobs=args.jobs,
                                              stream=streaming,
                                              progress=progress)
            source = ("disk cache hit" if origin == "disk"
                      else "memory cache hit" if origin == "memory"
                      else "cache miss")
    finally:
        if renderer is not None:
            renderer.close()
        if record_stream is not None:
            record_stream.close()
    elapsed = time.perf_counter() - started
    jobs_note = f", jobs {args.jobs}" if args.jobs != 1 else ""
    # Cached studies were not executed now; only a fresh simulation's
    # sequential/parallel/auto-downgrade decision is worth reporting.
    ran_now = source in ("cache off", "cache miss",
                         "cache bypassed (--stream-jsonl)")
    exec_note = f", {study.execution}" if ran_now else ""
    if ran_now and study.execution.startswith("parallel"):
        from repro.experiments.parallel import pool_info

        info = pool_info()
        if info["workers"]:
            state = "warm" if info["studies"] > 1 else "cold"
            exec_note += (f", pool {state} "
                          f"({info['workers']} workers)")
    fast_note = (f", fast-path {args.fast_path}"
                 if spec.fast_path is not None else "")
    # ru_maxrss is KiB on Linux: the process-lifetime high-water mark,
    # which is exactly the number the bounded-memory claim is about.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"# study sweep: {len(study)} pair runs in {elapsed:.2f}s "
          f"(seed {args.seed}, scale {args.scale}{jobs_note}{exec_note}"
          f"{fast_note}, {source}, peak rss {peak_kib / 1024:.0f} MiB)\n")
    if spec.fast_path is not None and ran_now:
        fast = sum(r.fastpath.packets_fast for r in study.runs
                   if r.fastpath is not None)
        fell = sum(r.fastpath.packets_fallback for r in study.runs
                   if r.fastpath is not None)
        total = fast + fell
        if total:
            print(f"# fast path: {fast} of {total} packets delivered "
                  f"analytically ({100.0 * fast / total:.1f}%)\n")
    if study.streaming is not None:
        summary = study.streaming
        print(f"# streamed: {summary.events_folded} events folded into "
              f"a bounded summary (fingerprint {summary.fingerprint()})\n")
    if args.stream_jsonl:
        print(f"wrote {args.stream_jsonl}")
    print(build_report(study, plots=args.plots))
    if args.html:
        from repro.experiments.html_report import build_html_report

        with open(args.html, "w") as stream:
            stream.write(build_html_report(study))
        print(f"wrote {args.html}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.errors import AnalysisError
    from repro.experiments.figures import ALL_FIGURES
    from repro.experiments.runner import run_study

    generator = ALL_FIGURES.get(args.figure_id)
    if generator is None:
        print(f"unknown figure {args.figure_id!r}; choose from: "
              f"{', '.join(sorted(ALL_FIGURES))}", file=sys.stderr)
        return 2
    study = run_study(seed=args.seed, duration_scale=args.scale)
    try:
        result = generator(study)
    except AnalysisError as exc:
        print(f"{args.figure_id}: n/a: {exc}", file=sys.stderr)
        return 1
    print(result.render(plot=args.plots))
    if args.csv:
        with open(args.csv, "w") as stream:
            stream.write(result.to_csv())
        print(f"wrote {args.csv}")
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from repro.experiments.tcp_friendly import run_probe
    from repro.media.clip import PlayerFamily

    if not 0.0 <= args.loss <= 1.0:
        return _usage_error(
            f"loss must be a fraction in [0, 1], got {args.loss}")
    family = (PlayerFamily.REAL if args.family == "real"
              else PlayerFamily.WMP)
    result = run_probe(family, args.kbps, loss_probability=args.loss,
                       duration=args.duration, rtt=args.rtt,
                       scaling=args.scaling)
    print(f"{family.display_name} {args.kbps:.0f} Kbps, "
          f"loss {args.loss * 100:.0f}%, RTT {args.rtt * 1000:.0f} ms, "
          f"scaling {'on' if args.scaling else 'off'}:")
    print(f"  offered load:       {result.offered_kbps:8.1f} Kbps")
    print(f"  delivered goodput:  {result.achieved_kbps:8.1f} Kbps")
    if result.tcp_friendly_kbps != float("inf"):
        print(f"  TCP-friendly bound: {result.tcp_friendly_kbps:8.1f} "
              "Kbps")
    print(f"  friendliness index: {result.friendliness_index:8.2f} "
          "(> 1 = unfriendly)")
    if args.scaling:
        print(f"  final rate scale:   {result.final_rate_scale:8.2f}")
    return 0


def _cmd_boundary(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.core.turbulence import TurbulenceProfile
    from repro.experiments.aggregate import run_boundary_study

    if args.clients <= 0:
        return _usage_error(f"--clients must be positive, got {args.clients}")
    result = run_boundary_study(client_count=args.clients,
                                duration=args.duration,
                                encoded_kbps=args.kbps, seed=args.seed)
    print(format_table(TurbulenceProfile.SUMMARY_HEADERS,
                       [p.summary_row()
                        for p in result.per_flow_profiles]))
    print(f"aggregate {result.aggregate_kbps:.0f} Kbps while all flows "
          f"active; CV {result.common_window_cv:.2f} -> "
          f"{result.full_span_cv:.2f} over the full span "
          f"(cliff factor {result.cliff_factor:.1f})")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.experiments.datasets import table1_rows

    print(format_table(("Data Set", "Pair", "Encode (Kbps)", "Genre",
                        "Length"), table1_rows()))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.capture.pcap import write_pcap
    from repro.capture.serialize import write_csv
    from repro.core.fitting import fit_profile
    from repro.core.generator import generate_flow
    from repro.core.turbulence import TurbulenceProfile
    from repro.analysis.report import format_table
    from repro.media.clip import PlayerFamily

    family = (PlayerFamily.REAL if args.family == "real"
              else PlayerFamily.WMP)
    flow = generate_flow(family, args.kbps, args.duration, seed=args.seed)
    trace = flow.to_trace()
    profile = fit_profile(trace, args.kbps,
                          label=f"{args.family} {args.kbps:.0f}K")
    print(f"generated {flow.packet_count} packets "
          f"({flow.total_wire_bytes / 1024:.0f} KiB) over "
          f"{flow.streaming_duration:.1f}s")
    print(format_table(TurbulenceProfile.SUMMARY_HEADERS,
                       [profile.summary_row()]))
    if args.pcap:
        write_pcap(trace, args.pcap)
        print(f"wrote {args.pcap}")
    if args.csv:
        write_csv(trace, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_pcap_info(args: argparse.Namespace) -> int:
    from repro.capture.pcap import read_pcap
    from repro.capture.reassembly import fragmentation_percent
    from repro.errors import ReproError

    try:
        trace = read_pcap(args.path)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.path}: {len(trace)} packets, "
          f"{trace.total_wire_bytes / 1024:.0f} KiB, "
          f"{trace.duration:.1f}s")
    if len(trace) > 0:
        print(f"fragmentation: {fragmentation_percent(trace):.1f}%")
    if trace.duration > 0:
        print(f"average rate: {trace.average_rate_bps() / 1000:.0f} Kbps")
    for src, dst, count in trace.conversations()[:10]:
        print(f"  {src} -> {dst}: {count} packets")
    return 0


def _cmd_scorecard(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_study
    from repro.experiments.scorecard import render_scorecard, run_scorecard

    bad = _check_sweep_args(args)
    if bad is not None:
        return bad
    if args.modern:
        from repro.experiments.modern import (
            render_modern_scorecard,
            run_modern_scorecard,
            scorecard_svg,
        )

        transports = (tuple(name.strip()
                            for name in args.transports.split(",")
                            if name.strip())
                      if args.transports else None)
        card = _checked(run_modern_scorecard, seed=args.seed,
                        duration_scale=args.scale, jobs=args.jobs,
                        transports=transports)
        print(render_modern_scorecard(card))
        if args.svg:
            with open(args.svg, "w") as stream:
                stream.write(scorecard_svg(card))
            print(f"wrote {args.svg}")
        return 0
    study = run_study(seed=args.seed, duration_scale=args.scale)
    results = run_scorecard(study)
    print(render_scorecard(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_cc(args: argparse.Namespace) -> int:
    from repro.cc.base import CcConfig, cc_descriptions
    from repro.experiments.datasets import table1_set_library
    from repro.experiments.runner import run_study
    from repro.experiments.spec import StudySpec
    from repro.telemetry import MemorySink, Telemetry
    from repro.telemetry.events import CC_STATE

    if args.list_controllers:
        for name, description in sorted(cc_descriptions().items()):
            print(f"{name:<8} {description}")
        return 0
    if args.controller is None:
        return _usage_error(
            "a controller name is required (or --list to see them)")
    config = _checked(CcConfig, kind=args.controller)
    library = _checked(table1_set_library, args.scale, args.set_number)
    spec = _checked(StudySpec, library=library, seed=args.seed,
                    duration_scale=args.scale, cc=config)
    telemetry = Telemetry(sinks=[MemorySink()])
    study = run_study(spec, telemetry=telemetry)
    samples = [event for event in telemetry.memory_events()
               if event.type == CC_STATE]
    telemetry.close()
    if not samples:
        print(f"error: controller {config.kind!r} recorded no cc_state "
              "samples (the null controller arms nothing); nothing to "
              "summarize", file=sys.stderr)
        return 1
    print(f"# cc {config.kind}: {len(study)} pair runs, "
          f"{len(samples)} state samples (seed {args.seed}, "
          f"scale {args.scale}, set {args.set_number}, "
          f"fingerprint {config.fingerprint()})\n")
    by_flow = {}
    for event in samples:
        record = event.field_dict()
        key = f"{record['controller']}/{record['family']}"
        by_flow.setdefault(key, []).append(record)
    for name in sorted(by_flow):
        records = by_flow[name]
        rates = [record["rate_bps"] for record in records
                 if record["rate_bps"] >= 0]
        last = records[-1]
        line = f"  {name}: {len(records)} samples"
        if rates:
            line += (f", rate {min(rates) / 1000:.0f}-"
                     f"{max(rates) / 1000:.0f} Kbps "
                     f"(last {last['rate_bps'] / 1000:.0f})")
        if last["cwnd_bytes"] >= 0:
            line += f", cwnd {last['cwnd_bytes']:.0f} B"
        print(line)
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.experiments.runner import run_study
    from repro.telemetry import (
        JsonlSink,
        MemorySink,
        SimProfiler,
        Telemetry,
        rebuffer_timeline,
        series_csv,
        to_json,
    )
    from repro.telemetry.registry import format_labels

    if args.top <= 0:
        print(f"--top must be a positive integer, got {args.top}",
              file=sys.stderr)
        return 2
    bad = _check_sweep_args(args)
    if bad is not None:
        return bad
    if args.ring_capacity is not None and args.ring_capacity < 0:
        return _usage_error(f"--ring-capacity must be >= 0, "
                            f"got {args.ring_capacity}")
    if args.ring_capacity is None:
        sinks = [MemorySink()]
    else:
        # 0 = unbounded, matching MemorySink(capacity=None).
        sinks = [MemorySink(capacity=args.ring_capacity or None)]
    if args.events:
        sinks.append(JsonlSink(args.events))
    profiler = SimProfiler() if args.profile else None
    telemetry = Telemetry(sinks=sinks, profiler=profiler)
    study = run_study(seed=args.seed, duration_scale=args.scale,
                      telemetry=telemetry, jobs=args.jobs)
    registry = telemetry.registry
    if not list(registry.counters()) and not telemetry.memory_events():
        print("error: the run recorded no telemetry (no counters, no "
              "trace events); nothing to summarize", file=sys.stderr)
        telemetry.close()
        return 1
    print(f"# telemetry: {len(study)} pair runs "
          f"(seed {args.seed}, scale {args.scale})\n")

    counters = sorted(registry.counters(), key=lambda item: -item[2].value)
    print("## counters (top by value)\n")
    print(format_table(("Counter", "Labels", "Value"),
                       [(name, format_labels(labels), str(counter.value))
                        for name, labels, counter in counters[:args.top]]))

    queue_gauges = sorted(
        ((labels, gauge) for name, labels, gauge in registry.gauges()
         if name == "queue.bytes"),
        key=lambda item: -item[1].peak)
    if queue_gauges:
        print("\n## per-hop queue depth (top by peak bytes)\n")
        print(format_table(
            ("Queue", "Peak B", "Last B", "Samples"),
            [(format_labels(labels), f"{gauge.peak:.0f}",
              f"{gauge.value:.0f}", str(len(gauge.series)))
             for labels, gauge in queue_gauges[:args.top]]))

    histograms = list(registry.histograms())
    if histograms:
        print("\n## histograms\n")
        print(format_table(
            ("Histogram", "Labels", "Count", "Mean", "Max"),
            [(name, format_labels(labels), str(h.count),
              f"{h.mean:.4g}", f"{h.max:.4g}" if h.max is not None else "-")
             for name, labels, h in histograms[:args.top]]))

    events = telemetry.memory_events()
    by_type = {}
    for event in events:
        by_type[event.type] = by_type.get(event.type, 0) + 1
    print(f"\n## trace events ({len(events)} retained)\n")
    print(format_table(("Event", "Count"),
                       [(etype, str(count))
                        for etype, count in sorted(by_type.items())]))

    timelines = rebuffer_timeline(events)
    if timelines:
        print("\n## playout / rebuffer timelines\n")
        for player, entries in sorted(timelines.items()):
            rendered = ", ".join(f"{etype}@{time:.2f}s"
                                 for etype, time in entries)
            print(f"  {player}: {rendered}")

    if profiler is not None:
        print("\n## event-loop profile (wall clock; not exported)\n")
        print(profiler.report.render())

    if args.json:
        with open(args.json, "w") as stream:
            stream.write(to_json(telemetry))
        print(f"\nwrote {args.json}")
    if args.series_csv:
        with open(args.series_csv, "w") as stream:
            stream.write(series_csv(registry))
        print(f"wrote {args.series_csv}")
    dropped = telemetry.dropped_events()
    if dropped:
        print(f"warning: memory ring dropped={dropped} events; the "
              f"oldest events are missing from every view above "
              f"(raise --ring-capacity, or pass 0 for unbounded)",
              file=sys.stderr)
    telemetry.close()
    if args.events:
        print(f"wrote {args.events}")
    return 0


def _seconds(value: float) -> str:
    return f"{value:.6f}s"


def _render_waterfall(latency, width: int = 44) -> str:
    """One ADU's journey as offset/duration rows with an ASCII bar."""
    run = f" run={latency.run}" if latency.run else ""
    lines = [f"adu#{latency.sequence} [{latency.family}]{run}  "
             f"total {_seconds(latency.total)}, "
             f"{latency.fragment_count} packet(s)"]
    stages = []
    offset = 0.0
    for hop in latency.hops:
        for stage, duration in (("queue", hop.queue), ("tx", hop.tx),
                                ("prop", hop.prop)):
            stages.append((f"{stage} {hop.link}", offset, duration))
            offset += duration
    stages.append(("reassembly wait", offset, latency.reassembly_wait))
    offset += latency.reassembly_wait
    stages.append(("buffer wait", offset, latency.buffer_wait))
    total = latency.total or 1.0
    name_width = max(len(name) for name, _, _ in stages)
    for name, start, duration in stages:
        begin = int(round(width * start / total))
        bar_width = (max(1, int(round(width * duration / total)))
                     if duration > 0 else 0)
        bar = (" " * begin + "#" * bar_width)[:width]
        lines.append(f"  {name:<{name_width}}  +{_seconds(start)}  "
                     f"{_seconds(duration)}  |{bar:<{width}}|")
    return "\n".join(lines) + "\n"


def _cmd_spans(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.report import format_table
    from repro.experiments.runner import run_study
    from repro.telemetry import (
        SpanRecorder,
        Telemetry,
        aggregate_attribution,
        attribute_latency,
        attribution_dict,
        slowest,
        write_chrome_trace,
        write_spans_jsonl,
    )
    from repro.telemetry.critical_path import COMPONENT_NAMES

    if args.top <= 0:
        print(f"--top must be a positive integer, got {args.top}",
              file=sys.stderr)
        return 2
    bad = _check_sweep_args(args)
    if bad is not None:
        return bad
    recorder = SpanRecorder()
    telemetry = Telemetry(spans=recorder)
    study = run_study(seed=args.seed, duration_scale=args.scale,
                      telemetry=telemetry, jobs=args.jobs)
    latencies = attribute_latency(recorder)
    if not latencies:
        print("error: the run recorded no completed ADU traces; nothing "
              "to attribute", file=sys.stderr)
        return 1
    print(f"# spans: {len(recorder)} spans, {len(recorder.roots())} ADU "
          f"traces, {len(latencies)} attributed "
          f"({len(study)} pair runs, seed {args.seed}, "
          f"scale {args.scale})\n")

    aggregate = aggregate_attribution(latencies)
    families = sorted(aggregate)
    rows = [("ADUs attributed",)
            + tuple(str(int(aggregate[f]["count"])) for f in families),
            ("mean packets/ADU",)
            + tuple(f"{aggregate[f]['mean_fragments']:.2f}"
                    for f in families),
            ("mean end-to-end",)
            + tuple(_seconds(aggregate[f]["mean_total"])
                    for f in families)]
    for name in COMPONENT_NAMES:
        rows.append(
            (name.replace("_", " "),)
            + tuple(f"{_seconds(aggregate[f]['mean_' + name])} "
                    f"({aggregate[f]['share_' + name]:.2f}%)"
                    for f in families))
    print("## latency attribution (per-family means)\n")
    print(format_table(("Component",) + tuple(families), rows))

    print(f"\n## slowest ADUs (top {args.top})\n")
    for latency in slowest(latencies, args.top):
        print(_render_waterfall(latency))

    if args.json:
        document = attribution_dict(latencies, top=args.top)
        with open(args.json, "w") as stream:
            stream.write(json.dumps(document, sort_keys=True, indent=2))
        print(f"wrote {args.json}")
    if args.chrome_trace:
        write_chrome_trace(recorder, args.chrome_trace)
        print(f"wrote {args.chrome_trace}")
    if args.jsonl:
        write_spans_jsonl(recorder, args.jsonl)
        print(f"wrote {args.jsonl}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.experiments.datasets import build_table1_library
    from repro.experiments.runner import run_pair_experiment, study_conditions
    from repro.experiments.spec import StudySpec
    from repro.faults import build_scenario, recovery_report, scenario_names
    from repro.repair import RepairConfig
    from repro.telemetry import JsonlSink, MemorySink, Telemetry

    if args.list_scenarios:
        from repro.faults.scenario import SCENARIO_BUILDERS

        for name in scenario_names():
            builder = SCENARIO_BUILDERS[name]
            description = build_scenario(name, args.seed).description
            print(f"{name:<18} {description}")
        return 0
    scenario = _checked(build_scenario, args.scenario, args.seed)
    spec = _checked(StudySpec, seed=args.seed, duration_scale=args.scale,
                    scenario=scenario,
                    repair=RepairConfig() if args.repair else None)

    library = build_table1_library(duration_scale=args.scale)
    clip_set, pair = library.all_pairs()[0]
    conditions = study_conditions(args.seed, 0)
    sinks = [MemorySink()]
    if args.events:
        sinks.append(JsonlSink(args.events))
    telemetry = Telemetry(sinks=sinks)
    result = run_pair_experiment(clip_set, pair, seed=args.seed,
                                 conditions=conditions,
                                 telemetry=telemetry, spec=spec)
    report = recovery_report(telemetry.memory_events(),
                             scenario=scenario.name)
    telemetry.close()
    print(f"# fault run: set {clip_set.number} {pair.band.value} "
          f"(seed {args.seed}, scale {args.scale}, "
          f"{conditions.describe()})\n")
    print(report.render())
    def _eos(value):
        return "never" if value is None else f"{value:.3f}s"

    print(f"\nstream outcomes: real eos_at={_eos(result.real_stats.eos_at)},"
          f" wmp eos_at={_eos(result.wmp_stats.eos_at)}")
    if args.events:
        print(f"wrote {args.events}")
    if not report.faults:
        print("error: the scenario injected no faults (nothing "
              "executed before the run ended)", file=sys.stderr)
        return 1
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.experiments.datasets import table1_set_library
    from repro.experiments.runner import run_study
    from repro.experiments.spec import StudySpec
    from repro.faults import build_scenario
    from repro.repair import RepairConfig
    from repro.telemetry import MemorySink, Telemetry
    from repro.telemetry.streaming import StreamingSummary

    config = _checked(RepairConfig, fec_group=args.fec_group,
                      nack=not args.no_nack)
    if config.is_null:
        return _usage_error(
            "error: --fec-group 0 with --no-nack arms no repair "
            "mechanism at all; nothing to report")
    scenario = None
    if args.fault_scenario != "none":
        scenario = _checked(build_scenario, args.fault_scenario, args.seed)
    library = _checked(table1_set_library, args.scale, args.set_number)
    spec = _checked(StudySpec, library=library, seed=args.seed,
                    duration_scale=args.scale, scenario=scenario,
                    repair=config)
    telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
    stream = StreamingSummary()
    study = run_study(spec, telemetry=telemetry, stream=stream)
    telemetry.close()

    fault_note = (args.fault_scenario if scenario is not None
                  else "no faults")
    print(f"# repair: {len(study)} pair runs (seed {args.seed}, "
          f"scale {args.scale}, set {args.set_number}, {fault_note}, "
          f"fingerprint {config.fingerprint()})\n")
    section = stream.rollup.as_dict().get("repair")
    if section is None:
        print("no repair activity (nothing sent, nothing lost)")
    else:
        qoe = section.pop("qoe")
        for key in sorted(section):
            print(f"  {key:<26} {section[key]}")
        print(f"  {'qoe mean/min/max':<26} {qoe['mean']}"
              f" / {qoe['min']} / {qoe['max']}")
    print("\nper-viewer QoE:")
    payload = {"repair": section, "runs": []}
    for run in study:
        for name, stats in (("real", run.real_stats),
                            ("wmp", run.wmp_stats)):
            score = stats.qoe()
            print(f"  {run.label}/{name}: score {score.score:.2f} "
                  f"(startup {score.startup_delay:.2f}s, rebuffer "
                  f"{100 * score.rebuffer_ratio:.1f}%, frames "
                  f"{100 * score.frame_delivery:.1f}%, repaired "
                  f"{100 * score.repair_ratio:.1f}% — lost "
                  f"{stats.packets_lost}, recovered "
                  f"{stats.packets_recovered})")
            payload["runs"].append(
                {"run": run.label, "player": name,
                 "packets_lost": stats.packets_lost,
                 "packets_recovered": stats.packets_recovered,
                 "qoe": score.as_dict()})
    if args.json:
        with open(args.json, "w") as handle:
            json_module.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"\nwrote {args.json}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.cc.abr import AbrConfig
    from repro.cc.base import CcConfig
    from repro.experiments.datasets import table1_set_library
    from repro.experiments.runner import run_study
    from repro.experiments.spec import StudySpec
    from repro.faults import build_scenario
    from repro.repair import RepairConfig
    from repro.validate import (
        GOLDEN_SCENARIOS,
        RunValidator,
        check_golden,
        run_differential,
    )

    bad = _check_sweep_args(args)
    if bad is not None:
        return bad

    if args.golden:
        failures = 0
        for name in sorted(GOLDEN_SCENARIOS):
            mismatches = check_golden(GOLDEN_SCENARIOS[name])
            if mismatches:
                failures += 1
                print(f"golden {name}: {len(mismatches)} mismatch"
                      f"{'es' if len(mismatches) != 1 else ''}")
                for entry in mismatches:
                    print(f"  ! {entry}")
            else:
                print(f"golden {name}: ok")
        return 1 if failures else 0

    # table1_set_library applies the scale when --set is given;
    # run_study applies it itself for the full sweep.
    library = (_checked(table1_set_library, args.scale, args.set_number)
               if args.set_number is not None else None)
    scenario = (_checked(build_scenario, args.fault_scenario, args.seed)
                if args.fault_scenario is not None else None)
    cc = (_checked(CcConfig, kind=args.cc_kind)
          if args.cc_kind is not None else None)
    spec = _checked(StudySpec, library=library, seed=args.seed,
                    duration_scale=args.scale, scenario=scenario, cc=cc,
                    abr=AbrConfig() if args.abr else None,
                    repair=RepairConfig() if args.repair else None,
                    fast_path=_fast_path(args.fast_path))

    if args.differential:
        report = run_differential(spec=spec, jobs=args.jobs)
        print(f"# differential oracle ({_describe(spec)})\n")
        print(report.summary())
        return 0 if report.ok else 1

    validator = RunValidator(raise_on_violation=False)
    # Arm full telemetry (unbounded ring) plus an online streaming
    # summary so the stream-equivalence invariant has both sides to
    # compare: the per-run fold and the buffered events it must match.
    from repro.telemetry import MemorySink, Telemetry
    from repro.telemetry.streaming import StreamingSummary

    telemetry = Telemetry(sinks=[MemorySink(capacity=None)])
    study = run_study(spec, telemetry=telemetry, jobs=1,
                      validate=validator, stream=StreamingSummary())
    print(f"# invariant check: {len(study)} pair runs "
          f"({_describe(spec)})\n")
    print(validator.report())
    return 1 if validator.violations else 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.errors import AnalysisError
    from repro.experiments.watch import (
        DEFAULT_METRICS,
        build_rules,
        load_records,
        tail_records,
        watch_records,
    )

    if args.metrics is not None:
        metrics = tuple(metric.strip()
                        for metric in args.metrics.split(",")
                        if metric.strip())
        if not metrics:
            return _usage_error("--metric needs at least one metric name")
    else:
        metrics = DEFAULT_METRICS
    if args.idle_timeout < 0:
        return _usage_error(f"--idle-timeout must be >= 0, "
                            f"got {args.idle_timeout}")
    try:
        rules = build_rules(metrics, z_threshold=args.z,
                            window=args.window,
                            min_baseline=args.min_baseline,
                            min_delta=args.min_delta)
    except AnalysisError as exc:
        return _usage_error(f"error: {exc}")
    try:
        if args.follow:
            report = watch_records(
                tail_records(args.path, idle_timeout=args.idle_timeout),
                rules)
        else:
            report = watch_records(load_records(args.path), rules)
    except OSError as exc:
        return _usage_error(f"error: {exc}")
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# watch: {report.records_checked} run records, "
          f"{len(rules)} rules (metrics {', '.join(metrics)}, "
          f"z {args.z:g}, window {args.window}, "
          f"min-baseline {args.min_baseline})\n")
    if report.records_checked == 0:
        print("error: no run records to watch", file=sys.stderr)
        return 1
    if report.tripped:
        for alert in report.alerts:
            print(alert.render())
        plural = "s" if len(report.alerts) != 1 else ""
        print(f"\n{len(report.alerts)} watch rule trip{plural}")
        return 1
    print("no anomalies")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.cache import (
        cache_dir,
        clear_disk_cache,
        disk_cache_enabled,
        disk_cache_entries,
    )

    if args.action == "clear":
        removed = clear_disk_cache()
        print(f"cleared {removed} cached stud"
              f"{'y' if removed == 1 else 'ies'} from {cache_dir()}")
        return 0
    entries = disk_cache_entries()
    state = "enabled" if disk_cache_enabled() else "disabled (REPRO_STUDY_CACHE=0)"
    print(f"study cache: {cache_dir()} ({state}, "
          f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'})")
    for entry in entries:
        print(f"  seed {entry.get('seed')}, scale "
              f"{entry.get('duration_scale')}, loss "
              f"{entry.get('loss_probability')}, "
              f"{entry.get('runs')} runs, "
              f"{entry.get('size_bytes', 0) / 1024:.0f} KiB "
              f"(code {entry.get('code')})")
    return 0


def _cmd_pool(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import pool_info, shutdown_pool

    if args.action == "shutdown":
        stopped = shutdown_pool()
        print("stopped the warm worker pool" if stopped
              else "no warm worker pool to stop")
        return 0
    info = pool_info()
    if not info["workers"]:
        print("worker pool: cold (no persistent pool in this process); "
              "a parallel run_study() warms one and later studies "
              "reuse it until shutdown_pool() or process exit")
        return 0
    print(f"worker pool: warm, {info['workers']} workers, "
          f"{info['studies']} stud"
          f"{'y' if info['studies'] == 1 else 'ies'} served")
    return 0


_HANDLERS = {
    "study": _cmd_study,
    "pool": _cmd_pool,
    "faults": _cmd_faults,
    "cc": _cmd_cc,
    "repair": _cmd_repair,
    "validate": _cmd_validate,
    "watch": _cmd_watch,
    "cache": _cmd_cache,
    "telemetry": _cmd_telemetry,
    "spans": _cmd_spans,
    "scorecard": _cmd_scorecard,
    "figure": _cmd_figure,
    "table1": _cmd_table1,
    "generate": _cmd_generate,
    "pcap-info": _cmd_pcap_info,
    "probe": _cmd_probe,
    "boundary": _cmd_boundary,
}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except _BadArgument as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":  # pragma: no cover - module execution
    sys.exit(main())

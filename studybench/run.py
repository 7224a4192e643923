"""The repo benchmark: the paper's Table 1 study, end to end.

Run from the root of a checkout::

    python3 studybench/run.py --workload table1-packet --seed 1 \\
        --seconds 45 --trace 0

The program is treated as a closed-loop batch job.  One *sweep* is
what a ``repro study`` + ``repro scorecard`` user waits for: the
13-pair Table 1 study (``run_study``), every figure (``build_report``)
and the paper scorecard (``run_scorecard``).  Sweeps run back to back,
each starting when the previous one ends, for ``--seconds`` of
measured time.  ``--seed`` is the study seed; the program receives
only the inputs generated from it.  The disk study cache is disabled,
so no sweep can be served from a stored study.

``--trace 0`` reports the end-to-end metrics (wall clock):

* ``setup_s``: process start until the first pair run could start
  (imports and the clip library); the median of several fresh
  processes.
* ``study_s``: median wall time of one sweep.
* ``stream_s_per_s``: simulated media seconds streamed (both clips of
  every pair) per host second of ``run_study`` alone.
* ``pair_mean_s``: mean wall time of one pair run, from the study's
  progress heartbeats.  (The 13 pairs differ up to 45-fold in size and
  the seed's hop counts reorder them, so their median jumps from pair
  to pair between seeds; the mean does not.)
* ``peak_rss_mb``: peak resident memory of the process.

``--trace 1`` runs one untraced and one traced sweep and reports the
per-layer metrics of :mod:`layers`.  On ``table1-packet`` it also runs
two traced legs: one sweep on a two-worker pool (workers forked under
the wrappers) for the ``experiments.parallel`` metrics, which must
equal the sequential sweep, and one burst-loss sweep with loss repair
for the drop, retransmission, repair and fault counters, checked like
a workload of its own.

Outputs are checked, never reported as metrics: each sweep's
per-run digests (trace, tracker stats, run metadata) and scorecard
verdicts must repeat exactly across the sweeps of a run, must equal
the pinned ones in ``pins.json`` for a pinned seed, and the traced
sweep must equal the untraced one.  Whatever the seed, one pair run of
the default seed is repeated and must equal its pin.  A pair run that
raises or mismatches counts as failed.  The last line of standard
output is one JSON object; the exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path
from typing import Dict, List, Optional

import layers

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
PINS = HERE / "pins.json"

#: The study's default seed; ``pins.json`` holds it and a held-out one.
DEFAULT_SEED = 2002
#: Clip-length scale of every workload: long enough for every figure
#: (fig10 needs four bandwidth intervals), short enough for several
#: sweeps per run.
SCALE = 0.15
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Workers of the traced pool leg, and the scale of the two-pair sweep
#: that warms them.
POOL_JOBS = 2
WARM_SCALE = 0.02

#: Study configuration name -> how ``run_study`` is called.
CONFIGS: Dict[str, Dict[str, object]] = {
    "table1-packet": {},
    "table1-fastpath": {"fast_path": True},
    "burstloss-repair": {"burst_loss": True},
}
#: The measured workloads.  The burst-loss and ``jobs=2`` sweeps run only
#: as traced legs of table1-packet: with more workloads the run budget
#: allowed only runs too short to average out the shared host's speed
#: drift (their 10-run spreads reached 0.26-0.30).
WORKLOADS = ("table1-packet", "table1-fastpath")
LOSSY = "burstloss-repair"
#: Per-layer metrics that table1-packet reads from its burst-loss leg.
LOSSY_METRICS = ("netsim.link.drops", "netsim.tcp.retransmits",
                 "repair.parity_sent", "repair.nacks", "repair.recovered",
                 "faults.fired")

END_TO_END = {"setup_s": "s", "study_s": "s", "stream_s_per_s": "1/s",
              "pair_mean_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The program under test could not be found or set up."""


# ----------------------------------------------------------------------
# The program under test
# ----------------------------------------------------------------------
def load_program() -> types.SimpleNamespace:
    """Import ``repro`` from ``./src`` of the checkout, cache disabled."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError("no ./src/repro here: run from a checkout's root")
    os.environ["REPRO_STUDY_CACHE"] = "0"
    os.environ["REPRO_STUDY_CACHE_DIR"] = str(OUT / "study-cache")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SetupError(f"imported repro from {repro.__file__}, not ./src")
    from repro.experiments import (datasets, parallel, progress, report,
                                   runner, scorecard)
    from repro.faults import build_scenario
    from repro.media.library import ClipLibrary
    from repro.netsim.flowlevel import FlowLevelConfig
    from repro.repair import RepairConfig
    from repro.validate import differential

    return types.SimpleNamespace(
        datasets=datasets, parallel=parallel, progress=progress,
        report=report, runner=runner, scorecard=scorecard,
        differential=differential, build_scenario=build_scenario,
        ClipLibrary=ClipLibrary, FlowLevelConfig=FlowLevelConfig,
        RepairConfig=RepairConfig)


def study_kwargs(api, config: str, seed: int) -> Dict[str, object]:
    spec = CONFIGS[config]
    kwargs: Dict[str, object] = {}
    if spec.get("fast_path"):
        kwargs["fast_path"] = api.FlowLevelConfig()
    if spec.get("burst_loss"):
        kwargs["scenario"] = api.build_scenario("burst-loss", seed)
        kwargs["repair"] = api.RepairConfig()
    return kwargs


def warm_pool(api, jobs: int) -> None:
    """Fork the persistent worker pool with a two-pair sweep."""
    tiny = api.ClipLibrary()
    tiny.add_set(next(clip_set for clip_set
                      in api.datasets.build_table1_library(WARM_SCALE)
                      if len(clip_set.bands) >= 2))
    api.runner.run_study(library=tiny, seed=0, jobs=jobs,
                         min_parallel_runs=0)


def setup():
    """Everything before the first pair run: ``(api, library)``."""
    api = load_program()
    library = api.datasets.build_table1_library(duration_scale=SCALE)
    return api, library


def probe_setup(workload: str, seed: int) -> List[float]:
    """``setup_s`` samples, one fresh process each.

    ``perf_counter`` reads the system-wide monotonic clock, so the
    child's "ready" stamp and the parent's start stamp compare.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120)
        end = time.perf_counter()
        if probe.returncode != 0:
            raise SetupError(f"setup probe failed:\n{probe.stderr}")
        ready = float(probe.stdout.split()[-1])
        samples.append(ready - start if start < ready < end
                       else end - start)
    return samples


# ----------------------------------------------------------------------
# One sweep
# ----------------------------------------------------------------------
class PairClock:
    """Progress callback: wall time of each pair run, from heartbeats."""

    def __init__(self, api) -> None:
        self._start_phase = api.progress.PHASE_START
        self._done_phase = api.progress.PHASE_DONE
        self._open: Dict[int, float] = {}
        self.durations: List[float] = []

    def __call__(self, beat) -> None:
        now = time.perf_counter()
        if beat.phase == self._start_phase:
            self._open[beat.index] = now
        elif beat.phase == self._done_phase and beat.index in self._open:
            self.durations.append(now - self._open.pop(beat.index))


class Sweep(types.SimpleNamespace):
    """One sweep: ``study``, ``verdicts`` and its ns stamps."""

    @property
    def study_s(self) -> float:
        return (self.end - self.start) / 1e9

    @property
    def simulate_s(self) -> float:
        return (self.simulated - self.start) / 1e9


def run_labels(library) -> List[str]:
    """The pair-run labels of a sweep, in library order."""
    return [f"set{clip_set.number}-{pair.band.short}"
            for clip_set, pair in library.all_pairs()]


def run_sweep(api, library, seed: int, kwargs, progress) -> Sweep:
    """``run_study`` → ``build_report`` → ``run_scorecard``, timed."""
    start = time.perf_counter_ns()
    study = api.runner.run_study(library=library, seed=seed,
                                 progress=progress, **kwargs)
    simulated = time.perf_counter_ns()
    api.report.build_report(study)
    verdicts = api.scorecard.run_scorecard(study)
    end = time.perf_counter_ns()
    return Sweep(study=study, verdicts=verdicts, start=start,
                 simulated=simulated, end=end)


def outputs(api, study, verdicts) -> Dict[str, object]:
    """The checked outputs: per-run digests and the verdict list."""
    surface = api.differential.study_surface(study)
    return {
        "runs": {run.label: [surface[f"run[{run.label}].{part}"]
                             for part in ("trace", "stats", "meta")]
                 for run in study},
        "verdicts": [[check.artifact, check.claim, check.measured,
                      check.passed] for check in verdicts],
    }


def pinned(workload: str, seed: int) -> Optional[Dict[str, object]]:
    if not PINS.is_file():
        return None
    pins = json.loads(PINS.read_text())
    if pins.get("scale") != SCALE:
        return None
    return pins["workloads"].get(workload, {}).get(str(seed))


def count_mismatches(expected: Dict[str, object],
                     got: Dict[str, object], labels: List[str]) -> int:
    """Pair runs of ``got`` that disagree with ``expected``.

    A run is wrong when its digests differ or it is missing; a verdict
    list that differs fails every run (the scorecard reads them all).
    """
    if got["verdicts"] != expected["verdicts"]:
        return len(labels)
    return sum(1 for label in labels
               if got["runs"].get(label) != expected["runs"].get(label))


def pair_matches(api, library, workload: str, seed: int, index: int,
                 expected: Optional[Dict[str, object]]) -> bool:
    """Re-run pair ``index`` of a ``seed`` sweep in-process; compare."""
    if expected is None:
        return False
    clip_set, pair = library.all_pairs()[index]
    kwargs = study_kwargs(api, workload, seed)
    run = api.runner.run_pair_experiment(
        clip_set, pair, seed=seed + index,
        conditions=api.runner.study_conditions(seed, index), **kwargs)
    single = api.runner.StudyResults(runs=[run])
    return (outputs(api, single, [])["runs"][run.label]
            == expected["runs"].get(run.label))


def pinned_pair_matches(api, library, workload: str, seed: int) -> bool:
    """Whatever the seed, one pair of the default seed must match its pin."""
    index = seed % len(library.all_pairs())
    if pair_matches(api, library, workload, DEFAULT_SEED, index,
                    pinned(workload, DEFAULT_SEED)):
        return True
    print(f"pinned pair check: pair run {index} of seed {DEFAULT_SEED} "
          "differs from its pin", file=sys.stderr)
    return False


def pool_leg(api, library, seed: int, expected, labels: List[str]):
    """The ``experiments.parallel`` metrics, from one traced pool sweep.

    Returns ``(metrics, mismatched pair runs, wrappers restored)``.
    """
    tracer = layers.Tracer()
    instrumentation = layers.Instrumentation(tracer)
    instrumentation.install()
    try:
        start = time.perf_counter()
        warm_pool(api, POOL_JOBS)
        warm_s = time.perf_counter() - start
        sweep = run_sweep(api, library, seed, {"jobs": POOL_JOBS}, None)
        print(f"pool leg: {sweep.study_s:.3f} s, pool "
              f"{api.parallel.pool_info()}", file=sys.stderr)
        instrumentation.absorb_workers(sweep.study.runs)
    finally:
        instrumentation.uninstall()
        api.parallel.shutdown_pool()
    tasks = instrumentation.tasks
    busy = sum(end - start for start, end in tasks)
    metrics = {
        "pool_warm_s": warm_s,
        "dispatch_s": (min(start for start, _ in tasks) - sweep.start) / 1e9,
        "merge_s": (sweep.simulated - max(end for _, end in tasks)) / 1e9,
        "worker_busy_share": busy / (POOL_JOBS
                                     * (sweep.simulated - sweep.start)),
        "result_bytes": sum(len(pickle.dumps(run))
                            for run in sweep.study.runs),
    }
    got = outputs(api, sweep.study, sweep.verdicts)
    return (metrics, count_mismatches(expected, got, labels),
            instrumentation.restored())


def lossy_leg(api, library, seed: int, labels: List[str]):
    """The lossy-path counters, from one traced burst-loss sweep.

    Returns ``(metrics, failed pair runs, wrappers restored)``.
    """
    tracer = layers.Tracer()
    instrumentation = layers.Instrumentation(tracer)
    instrumentation.install()
    try:
        sweep = run_sweep(api, library, seed,
                          study_kwargs(api, LOSSY, seed), None)
    finally:
        instrumentation.uninstall()
    failed = 0
    pins = pinned(LOSSY, seed)
    if pins is not None:
        failed += count_mismatches(
            pins, outputs(api, sweep.study, sweep.verdicts), labels)
    if not pinned_pair_matches(api, library, LOSSY, seed):
        failed += 1
    metrics = layers.layer_metrics(tracer)
    return ({name: metrics[name] for name in LOSSY_METRICS}, failed,
            instrumentation.restored())


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics over ``seconds``."""
    setup_samples = probe_setup(workload, seed)
    api, library = setup()
    kwargs = study_kwargs(api, workload, seed)
    labels = run_labels(library)
    media_s = sum(pair.real.duration + pair.wmp.duration
                  for _, pair in library.all_pairs())
    clock = PairClock(api)
    sweeps: List[Sweep] = []
    results: List[Dict[str, object]] = []
    attempts = failed = 0
    measured = 0.0
    # Closed loop: start another sweep while that ends nearer to
    # ``seconds`` of measured time than stopping now would.
    while not attempts or measured + measured / attempts / 2 < seconds:
        attempts += 1
        start = time.perf_counter()
        try:
            sweep = run_sweep(api, library, seed, kwargs, clock)
        except Exception:  # a sweep that raises fails all its runs
            traceback.print_exc()
            failed += len(labels)
            measured += time.perf_counter() - start
            continue
        measured += sweep.study_s
        sweeps.append(sweep)
        results.append(outputs(api, sweep.study, sweep.verdicts))
        sweep.study = None
        print(f"sweep {attempts}: {sweep.study_s:.3f} s", file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if results:
        expected = pinned(workload, seed) or results[0]
        for got in results:
            failed += count_mismatches(expected, got, labels)
    if not pinned_pair_matches(api, library, workload, seed):
        failed += 1
    metrics = {}
    if sweeps:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "study_s": statistics.median(s.study_s for s in sweeps),
            "stream_s_per_s": statistics.median(
                media_s / s.simulate_s for s in sweeps),
            "pair_mean_s": statistics.fmean(clock.durations),
            "peak_rss_mb": rss_mb,
        }
    return {"correct": bool(sweeps) and failed == 0,
            "attempted": attempts * len(labels), "failed": failed,
            "metrics": {name: {"value": value, "unit": END_TO_END[name]}
                        for name, value in metrics.items()}}


def trace(workload: str, seed: int) -> dict:
    """The traced run: per-layer metrics from one traced sweep."""
    api, library = setup()
    kwargs = study_kwargs(api, workload, seed)
    labels = run_labels(library)
    reference = run_sweep(api, library, seed, kwargs, None)
    expected = outputs(api, reference.study, reference.verdicts)
    reference.study = None
    tracer = layers.Tracer()
    instrumentation = layers.Instrumentation(tracer)
    instrumentation.install()
    try:
        with tracer.open(layers.ROOT):
            traced = run_sweep(api, library, seed, kwargs, None)
    finally:
        instrumentation.uninstall()
    got = outputs(api, traced.study, traced.verdicts)
    traced.study = None
    failed = count_mismatches(expected, got, labels)
    pins = pinned(workload, seed)
    if pins is not None:
        failed += count_mismatches(pins, expected, labels)
    if not pinned_pair_matches(api, library, workload, seed):
        failed += 1
    restored = instrumentation.restored()

    metrics = layers.layer_metrics(tracer)
    _, root_ns, root_self_ns = tracer.totals[layers.ROOT]
    metrics["trace.overhead_share"] = traced.study_s / reference.study_s - 1
    metrics["trace.unattributed_share"] = root_self_ns / root_ns
    parallel = dict.fromkeys(("pool_warm_s", "dispatch_s", "result_bytes",
                              "merge_s", "worker_busy_share"), 0.0)
    legs = workload == "table1-packet"
    if legs:
        parallel, mismatched, pool_restored = pool_leg(
            api, library, seed, expected, labels)
        lossy, lossy_failed, lossy_restored = lossy_leg(
            api, library, seed, labels)
        metrics.update(lossy)
        failed += mismatched + lossy_failed
        restored = restored and pool_restored and lossy_restored
    for name, value in parallel.items():
        metrics[f"experiments.parallel.{name}"] = value
    if not restored:
        print("instrumentation left a wrapper installed", file=sys.stderr)

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "scale": SCALE,
        "totals_ns": tracer.totals, "counts": tracer.counts,
        "spans": tracer.spans, "missing": instrumentation.missing,
        "metrics": metrics}, indent=1))
    units = {entry["name"]: entry["unit"] for entry in layers.PER_LAYER}
    return {"correct": failed == 0 and restored,
            "attempted": len(labels) * (4 if legs else 2),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup()
            print(time.perf_counter())
            return 0
        if args.trace:
            result = trace(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

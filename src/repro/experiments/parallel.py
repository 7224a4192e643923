"""Process-pool study execution.

Every pair run of a sweep is an independent simulation fully determined
by ``seed + index``, so the Table 1 corpus parallelizes embarrassingly:
fan the runs out across worker processes, then merge everything back
*in library order* so the study is bit-for-bit the sequential one.

Three things make the merge exact rather than approximate:

* **Conditions are derived, not threaded.**  Run ``i`` samples its
  network conditions from ``RandomStreams(seed + i)`` (see
  :func:`~repro.experiments.runner.study_conditions`), so a worker
  needs nothing from the parent but the index.
* **Telemetry snapshots, not a shared facade.**  The parent's facade
  binds the simulator clock as a closure and cannot cross a process
  boundary; each worker instead runs under its own registry / event
  capture / span recorder (scoped with the same ``run=<label>`` the
  sequential loop would set) and ships a picklable
  :class:`~repro.telemetry.core.TelemetrySnapshot` home.  Merging the
  snapshots in library order reproduces the sequential facade exactly:
  counters add into disjoint ``run``-labelled keys, events replay
  through the parent bus and take its sequence numbers, and span ids
  rebase into the contiguous blocks a shared recorder would have
  assigned (the runs' capture records are rebased to match).
* **The profiler stays home.**  Its numbers are wall-clock and
  per-process; a parallel study simply does not profile workers.

The one deliberate difference from sequential execution: ``Packet.uid``
is a process-local diagnostic counter (two sequential same-seed studies
in one process already disagree on it), so uids in a parallel study's
traces differ from a sequential study's.  Nothing downstream keys on
them across runs.

**The pool persists.**  Workers fork once and are reused across
``run_study`` calls: on small sweeps the fork/import warmup used to eat
most of the parallel win (BENCH_substrate.json), so the executor lives
at module level and every study ships its :class:`_WorkerSpec` with the
tasks instead of baking it into the pool initializer.  A new worker
count replaces the pool; :func:`shutdown_pool` (also ``repro pool
shutdown``, and an ``atexit`` hook) tears it down explicitly, and
:func:`pool_info` reports reuse for the study timing line.
"""

from __future__ import annotations

import atexit
import multiprocessing
import queue as queue_module
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.progress import (
    PHASE_DONE,
    PHASE_START,
    Heartbeat,
    ProgressCallback,
)
from repro.experiments.runner import (
    PairRunResult,
    StudyResults,
    run_pair_experiment,
    study_conditions,
)
from repro.experiments.spec import StudySpec
from repro.telemetry.core import Telemetry, TelemetrySnapshot
from repro.telemetry.sinks import MemorySink, NullSink
from repro.telemetry.spans import SpanRecorder
from repro.telemetry.streaming import StreamingSink, StreamingSummary


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a worker needs, shipped with every task."""

    #: The study itself, its library resolved; pure data, so shipping
    #: it reproduces the sequential pair runs exactly.
    study: StudySpec
    #: Parent facade shape, mirrored per worker: a registry is always
    #: built when the parent has one; event capture and span recording
    #: only when the parent would actually consume them.
    metrics: bool
    events: bool
    spans: bool
    series_limit: int
    #: Streaming-summary template: workers never fold into it, they
    #: ``spawn()`` a fresh per-run summary with its configuration and
    #: ship that home on the snapshot.
    stream: Optional[StreamingSummary] = None
    #: Manager-queue proxy for live heartbeats (a raw ``mp.Queue``
    #: cannot ride through initargs); ``None`` when nobody listens.
    heartbeats: Optional[object] = None


def _worker_telemetry(spec: _WorkerSpec) -> Optional[Telemetry]:
    """A fresh facade mirroring the parent's shape (never its profiler).

    Event capture uses one *unbounded* memory sink: the parent replays
    the stream through its own (possibly bounded) sinks afterwards, so
    dropping anything here would diverge from a sequential run.
    """
    if not spec.metrics:
        if spec.stream is None:
            return None
        # Stream-only mode: a facade whose bus is inactive until the
        # per-run streaming sink attaches, exactly like the sequential
        # loop's internal facade.
        from repro.telemetry.registry import MetricsRegistry

        return Telemetry(registry=MetricsRegistry(), sinks=[])
    from repro.telemetry.registry import MetricsRegistry

    sink = MemorySink(capacity=None) if spec.events else NullSink()
    return Telemetry(registry=MetricsRegistry(spec.series_limit),
                     sinks=[sink],
                     spans=SpanRecorder() if spec.spans else None)


def _run_index(spec: _WorkerSpec, index: int
               ) -> Tuple[PairRunResult, Optional[TelemetrySnapshot]]:
    """Execute pair run ``index`` of the sweep in this worker.

    The spec rides along with every task (rather than a pool
    initializer) so one persistent pool can serve studies with
    different configurations back to back.
    """
    study = spec.study
    pairs = study.library.all_pairs()
    clip_set, pair = pairs[index]
    label = f"set{clip_set.number}-{pair.band.short}"
    conditions = study_conditions(study.seed, index,
                                  loss_probability=study.loss_probability)
    telemetry = _worker_telemetry(spec)
    if telemetry is not None and spec.metrics:
        telemetry.set_context(run=label)
    if spec.heartbeats is not None:
        spec.heartbeats.put(Heartbeat(index=index, total=len(pairs),
                                      label=label, phase=PHASE_START))
    per_run = None
    if spec.stream is not None:
        per_run = spec.stream.spawn()
        telemetry.bus.attach(StreamingSink(per_run))
    result = run_pair_experiment(clip_set, pair, seed=study.seed + index,
                                 conditions=conditions, telemetry=telemetry,
                                 spec=study)
    snapshot: Optional[TelemetrySnapshot] = None
    if telemetry is not None:
        if per_run is not None and telemetry.spans is not None:
            # The worker recorder is fresh per run, so its whole forest
            # is this run's — the same slice the sequential loop folds.
            per_run.fold_spans(telemetry.spans.spans)
        if spec.metrics:
            telemetry.clear_context()
            snapshot = telemetry.snapshot()
            snapshot.streaming = per_run
        elif per_run is not None:
            snapshot = TelemetrySnapshot(registry=telemetry.registry,
                                         streaming=per_run)
    if spec.heartbeats is not None:
        spec.heartbeats.put(Heartbeat(
            index=index, total=len(pairs), label=label, phase=PHASE_DONE,
            sim_time_frac=1.0,
            events_folded=per_run.events_folded if per_run else 0,
            faults_fired=per_run.rollup.faults_fired if per_run else 0,
            rollup=per_run.rollup.as_dict() if per_run else None))
    return result, snapshot


def _pool_context():
    """Prefer fork (cheap, inherits sys.path); fall back to the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


# ----------------------------------------------------------------------
# The persistent pool
# ----------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_STUDIES = 0  # studies served by the current pool (1 = cold)


def _ensure_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor, (re)built only when the size changes."""
    global _POOL, _POOL_WORKERS, _POOL_STUDIES
    if _POOL is not None and _POOL_WORKERS != workers:
        shutdown_pool()
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=workers,
                                    mp_context=_pool_context())
        _POOL_WORKERS = workers
        _POOL_STUDIES = 0
    _POOL_STUDIES += 1
    return _POOL


def pool_info() -> Dict[str, int]:
    """Live pool state: ``workers`` (0 = no pool) and ``studies`` served."""
    return {"workers": _POOL_WORKERS if _POOL is not None else 0,
            "studies": _POOL_STUDIES if _POOL is not None else 0}


def shutdown_pool() -> bool:
    """Tear the persistent pool down; True if one was running."""
    global _POOL, _POOL_WORKERS, _POOL_STUDIES
    if _POOL is None:
        return False
    _POOL.shutdown(wait=True)
    _POOL = None
    _POOL_WORKERS = 0
    _POOL_STUDIES = 0
    return True


atexit.register(shutdown_pool)


def _drain_heartbeats(heartbeats, progress: ProgressCallback) -> None:
    """Forward every queued heartbeat to the progress callback."""
    while True:
        try:
            beat = heartbeats.get_nowait()
        except queue_module.Empty:
            return
        progress(beat)


def run_study_parallel(spec: StudySpec,
                       telemetry: Optional[Telemetry],
                       jobs: int,
                       stream: Optional[StreamingSummary] = None,
                       progress: Optional[ProgressCallback] = None
                       ) -> StudyResults:
    """Fan a sweep's pair runs across ``jobs`` worker processes.

    Called by :func:`~repro.experiments.runner.run_study` (which
    resolves ``spec.library``) when ``jobs > 1``; produces results
    identical to the sequential path (same runs in the same order, same
    merged telemetry, same streaming-summary bytes).  The worker pool outlives the call (see
    module docstring); only the heartbeat manager, when progress is
    requested, is per-study.
    """
    pairs = spec.library.all_pairs()
    manager = None
    heartbeats = None
    if progress is not None:
        manager = _pool_context().Manager()
        heartbeats = manager.Queue()
    task = _WorkerSpec(
        study=spec, metrics=telemetry is not None,
        events=telemetry is not None and telemetry.bus.active,
        spans=telemetry is not None and telemetry.spans is not None,
        series_limit=(telemetry.registry._series_limit
                      if telemetry is not None else 0),
        stream=stream, heartbeats=heartbeats)
    outcomes: List[Tuple[PairRunResult, Optional[TelemetrySnapshot]]]
    try:
        pool = _ensure_pool(min(jobs, len(pairs)))
        # submit + wait (rather than map) so the same loop serves both
        # modes; submission order is library order, and results are
        # gathered from the future list in that order, which is the
        # whole determinism guarantee.
        futures = [pool.submit(_run_index, task, index)
                   for index in range(len(pairs))]
        if heartbeats is not None:
            pending = set(futures)
            while pending:
                _, pending = wait(pending, timeout=0.05,
                                  return_when=FIRST_COMPLETED)
                _drain_heartbeats(heartbeats, progress)
            _drain_heartbeats(heartbeats, progress)
        outcomes = [future.result() for future in futures]
    except BrokenProcessPool:
        # A dead worker poisons the whole executor; drop it so the next
        # study forks a fresh one instead of failing forever.
        shutdown_pool()
        raise
    finally:
        if manager is not None:
            manager.shutdown()
    results = StudyResults(telemetry=telemetry)
    for result, snapshot in outcomes:
        if snapshot is not None:
            if telemetry is not None:
                offset = telemetry.merge(snapshot)
                if offset:
                    result.trace.rebase_spans(offset)
            if stream is not None and snapshot.streaming is not None:
                stream.merge(snapshot.streaming)
        results.runs.append(result)
    results.streaming = stream
    return results

"""Differential oracle: one study, three execution paths, zero diffs.

PR 3 made study execution polymorphic — the same seeded sweep can run
sequentially, fan out across worker processes, or come back from the
persistent disk cache — on the promise that all three produce the same
results.  This module *checks* that promise instead of assuming it: it
runs the study each way and diffs the complete observable surface —
uid-free trace CSV, tracker logs, sampled conditions, ping/tracert
reports, stability verdicts, the telemetry summary, the canonical
event stream, and the span forest — via sha256 digests.

Any divergence is a bug in the execution machinery (a worker merging
runs out of order, a pickle round-trip dropping a field, dict-order
nondeterminism reaching an export), exactly the class of silent
corruption a figure reader could never spot.  ``repro validate
--study`` runs this and exits non-zero on the first mismatch.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.capture import serialize
from repro.experiments.cache import (
    CACHE_DIR_ENV,
    CACHE_ENV,
    _disk_load,
    _disk_store,
)
from repro.experiments.runner import StudyResults, run_study
from repro.experiments.spec import StudySpec, study_spec
from repro.players import logging as tracker_logging
from repro.telemetry.core import Telemetry
from repro.telemetry.exporters import to_json
from repro.telemetry.sinks import MemorySink, encode_event
from repro.telemetry.spans import SpanRecorder
from repro.telemetry.streaming import StreamingSummary, fold_events
from repro.telemetry.trace_export import spans_jsonl


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fresh_telemetry(spec: Optional[StudySpec] = None) -> Telemetry:
    """A facade capturing everything a study of ``spec`` emits,
    unbounded — span-free when the spec does not allow span tracing."""
    spans = spec is None or spec.allows_spans
    return Telemetry(sinks=[MemorySink(capacity=None)],
                     spans=SpanRecorder() if spans else None)


def study_surface(study: StudyResults,
                  telemetry: Optional[Telemetry] = None) -> Dict[str, str]:
    """Digest every observable of a study, keyed by surface name.

    Per pair run: the uid-free trace CSV, both tracker logs, and the
    experiment metadata (conditions, ping RTTs, tracert hops, stability
    verdict).  Study-wide, when a telemetry facade is supplied: the
    canonical summary JSON, the encoded event stream, and the span
    forest export.  Cache round-trips carry runs (plus any streaming
    summary) only, so their surfaces simply lack the ``telemetry.*``
    keys; the ``streaming.summary`` surface rides wherever the study's
    online fold does — including through the pickle round-trip.
    """
    surfaces: Dict[str, str] = {}
    if study.streaming is not None:
        surfaces["streaming.summary"] = _digest(study.streaming.to_json())
    for run in study:
        label = run.label
        surfaces[f"run[{label}].trace"] = _digest(serialize.dumps(run.trace))
        surfaces[f"run[{label}].stats"] = _digest(
            tracker_logging.dumps(run.real_stats)
            + tracker_logging.dumps(run.wmp_stats))
        meta = repr((run.set_number, run.genre, run.band,
                     run.conditions, run.real_clip, run.wmp_clip,
                     str(run.real_server), str(run.wmp_server),
                     run.ping_before, run.ping_after,
                     run.tracert, run.tracert_after, run.stability))
        surfaces[f"run[{label}].meta"] = _digest(meta)
    if telemetry is not None:
        surfaces["telemetry.summary"] = _digest(to_json(telemetry))
        surfaces["telemetry.events"] = _digest(
            "\n".join(encode_event(event)
                      for event in telemetry.memory_events()))
        if telemetry.spans is not None:
            surfaces["telemetry.spans"] = _digest(spans_jsonl(telemetry.spans))
    return surfaces


@dataclass
class DifferentialReport:
    """The three legs' surface digests and every disagreement found."""

    legs: Dict[str, Dict[str, str]] = field(default_factory=dict)
    divergences: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        lines = []
        reference = self.legs.get("sequential", {})
        for name, surfaces in self.legs.items():
            shared = [key for key in surfaces if key in reference]
            matching = sum(surfaces[key] == reference[key] for key in shared)
            lines.append(f"leg {name}: {len(surfaces)} surfaces"
                         + ("" if name == "sequential" else
                            f", {matching}/{len(shared)} match sequential"))
        if self.ok:
            lines.append("all execution paths agree")
        else:
            lines.append(f"{len(self.divergences)} divergence"
                         f"{'s' if len(self.divergences) != 1 else ''}:")
            lines.extend(f"  ! {entry}" for entry in self.divergences)
        return "\n".join(lines)


def _compare(report: DifferentialReport, name: str,
             reference: Dict[str, str], candidate: Dict[str, str],
             require_all: bool) -> None:
    """Record every surface where ``candidate`` disagrees with the
    sequential reference.  ``require_all`` also flags surfaces the
    candidate should have produced but did not."""
    for key in sorted(reference):
        if key not in candidate:
            if require_all:
                report.divergences.append(f"{name}: surface {key} missing")
            continue
        if candidate[key] != reference[key]:
            report.divergences.append(
                f"{name}: {key} digest {candidate[key][:12]} != "
                f"sequential {reference[key][:12]}")
    for key in sorted(candidate):
        if key not in reference:
            report.divergences.append(
                f"{name}: unexpected extra surface {key}")


def run_differential(spec: Optional[StudySpec] = None, *, jobs: int = 2,
                     **options: object) -> DifferentialReport:
    """Run one seeded study three ways and diff every surface.

    ``spec`` (or ``options``, spec field names folded into it once,
    here) is the study; every leg runs it whole.

    Legs:

    1. **sequential** — the reference: in-process, ``jobs=1``.
    2. **parallel** — the same parameters fanned across ``jobs``
       worker processes, telemetry folded back post-hoc.
    3. **cache** — the sequential results pushed through the disk
       cache's pickle round-trip (store + load under an isolated
       temporary directory; no third simulation).

    Returns:
        A :class:`DifferentialReport`; ``report.ok`` is False on any
        digest mismatch.
    """
    spec = study_spec(spec, **options)
    report = DifferentialReport()

    telemetry_seq = _fresh_telemetry(spec)
    study_seq = run_study(spec, telemetry=telemetry_seq, jobs=1,
                          stream=StreamingSummary())
    reference = study_surface(study_seq, telemetry_seq)
    report.legs["sequential"] = reference

    # The streaming fold's own oracle: refolding the *fully buffered*
    # event stream (plus the span forest) into one fresh summary must
    # reproduce the per-run merged summary byte for byte — the bounded
    # fold lost nothing the unbounded buffer kept.
    if study_seq.streaming is not None:
        refold = fold_events(telemetry_seq.memory_events(),
                             into=study_seq.streaming.spawn())
        if telemetry_seq.spans is not None:
            refold.fold_spans(telemetry_seq.spans.spans)
        if refold.to_json() != study_seq.streaming.to_json():
            report.divergences.append(
                f"streaming: merged per-run fold (fingerprint "
                f"{study_seq.streaming.fingerprint()}) != refold of the "
                f"buffered stream ({refold.fingerprint()})")

    telemetry_par = _fresh_telemetry(spec)
    study_par = run_study(spec, telemetry=telemetry_par, jobs=max(2, jobs),
                          min_parallel_runs=0, stream=StreamingSummary())
    parallel = study_surface(study_par, telemetry_par)
    report.legs["parallel"] = parallel
    _compare(report, "parallel", reference, parallel, require_all=True)

    # Cache leg: push the sequential sweep through the disk layer's
    # pickle round-trip in an isolated directory so the user's real
    # cache is neither consulted nor polluted.
    saved = {name: os.environ.get(name)
             for name in (CACHE_ENV, CACHE_DIR_ENV)}
    with tempfile.TemporaryDirectory(prefix="repro-validate-") as tmp:
        os.environ[CACHE_DIR_ENV] = tmp
        os.environ.pop(CACHE_ENV, None)
        try:
            _disk_store(spec, True, study_seq)
            study_cached = _disk_load(spec, True)
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
    if study_cached is None:
        report.legs["cache"] = {}
        report.divergences.append(
            "cache: stored sweep did not load back")
    else:
        cached = study_surface(study_cached)
        report.legs["cache"] = cached
        # Cache entries carry runs and the streaming summary but no
        # telemetry facade; compare what round-tripped and let the
        # telemetry.* keys pass.
        _compare(report, "cache", reference, cached, require_all=False)
    return report

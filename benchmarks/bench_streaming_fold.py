"""Microbenchmark of the bounded-memory streaming fold.

Not a paper artifact — this guards the ``repro.telemetry.streaming``
hot path: folding one ``TraceEvent`` into a ``StreamingSummary`` is on
the per-event emit path whenever a study runs with ``--progress`` or
``--stream-jsonl``, so a regression here taxes every instrumented run.
The bench folds a fixed synthetic event mix (delivery / loss /
fragmentation / rebuffer edges over a small entity domain) and CI diffs
the median against ``BENCH_substrate.json`` under the same >25%
regression gate as the study benches.  The merge bench is advisory:
it times the per-worker summary merge the parallel path performs once
per run, far off the per-event hot path.
"""

import pytest

from repro.telemetry.events import (
    FRAGMENT_EMITTED,
    PACKET_DELIVERED,
    PACKET_LOSS,
    REBUFFER_START,
    REBUFFER_STOP,
    TraceEvent,
)
from repro.telemetry.streaming import StreamingSummary, fold_events

FOLD_BENCH_EVENTS = 20_000


def _synthetic_events(count):
    """A deterministic event mix shaped like a real run's stream."""
    events = []
    for index in range(count):
        time = index * 0.001
        slot = index % 10
        if slot < 6:
            events.append(TraceEvent(
                type=PACKET_DELIVERED, time=time, sequence=index,
                fields=(("link", f"hop{index % 17}"),
                        ("packet_bytes", 700 + (index % 5) * 160))))
        elif slot < 8:
            events.append(TraceEvent(
                type=FRAGMENT_EMITTED, time=time, sequence=index,
                fields=(("fragments", 1 + index % 3),)))
        elif slot == 8:
            events.append(TraceEvent(
                type=PACKET_LOSS, time=time, sequence=index,
                fields=(("link", f"hop{index % 17}"),)))
        else:
            edge = REBUFFER_START if (index // 10) % 2 == 0 else REBUFFER_STOP
            events.append(TraceEvent(
                type=edge, time=time, sequence=index,
                fields=(("player", "real" if index % 2 else "wmp"),)))
    return events


@pytest.mark.guarded
def test_bench_streaming_fold(benchmark):
    """Per-event fold cost over a realistic event mix."""
    events = _synthetic_events(FOLD_BENCH_EVENTS)

    summary = benchmark(fold_events, events)
    assert summary.events_folded == FOLD_BENCH_EVENTS


def test_bench_streaming_merge(benchmark):
    """Merging per-run partial summaries (the parallel-path join)."""
    events = _synthetic_events(FOLD_BENCH_EVENTS)
    cut = len(events) // 13  # one partial per Table 1 run
    parts = [fold_events(events[start:start + cut])
             for start in range(0, len(events), cut)]

    def merge_all():
        total = StreamingSummary()
        for part in parts:
            total.merge(part)
        return total

    merged = benchmark(merge_all)
    assert merged.events_folded == FOLD_BENCH_EVENTS

"""Benchmark-result JSON artifacts.

CI runs the substrate microbenchmarks on every push and uploads the
medians as a build artifact (``BENCH_substrate.json``), so a perf
regression in the hot paths shows up as a diffable number, not a
feeling.  The emitter is deliberately tiny and dependency-free: it
reads the session's pytest-benchmark stats and writes one JSON object
per benchmark with the median (the robust central estimate the
acceptance criteria key on) plus enough context to judge it.
"""

from __future__ import annotations

import json
import platform
import sys
from typing import AbstractSet, Dict, Iterable, List

try:
    import resource
except ImportError:  # non-POSIX platform: omit the RSS field
    resource = None


def peak_rss_kb() -> int:
    """Peak resident-set size of this process in KiB (0 if unknown).

    ``ru_maxrss`` is KiB on Linux; session-scoped, so it reflects the
    high-water mark across every bench that ran, which is exactly the
    memory-flatness signal the streaming work is guarded on.
    """
    if resource is None:
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def benchmark_records(benchmarks: Iterable[object],
                      guarded: AbstractSet[str] = frozenset(),
                      ) -> List[Dict[str, object]]:
    """Flatten pytest-benchmark ``Metadata`` objects to JSON-able rows.

    Benchmarks that never ran (``--benchmark-disable``, errors) carry
    no rounds and are skipped.  A bench whose ``fullname`` (its pytest
    node id) is in ``guarded`` is written with ``"guarded": true``.
    """
    records: List[Dict[str, object]] = []
    for bench in benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None or not getattr(stats, "rounds", 0):
            continue
        record = {
            "name": bench.name,
            "fullname": bench.fullname,
            "median_seconds": stats.median,
            "mean_seconds": stats.mean,
            "stddev_seconds": stats.stddev,
            "min_seconds": stats.min,
            "max_seconds": stats.max,
            "rounds": stats.rounds,
            "iterations": getattr(bench, "iterations", 1),
        }
        if bench.fullname in guarded:
            record["guarded"] = True
        records.append(record)
    records.sort(key=lambda record: record["fullname"])
    return records


def write_benchmark_json(benchmarks: Iterable[object], path: str,
                         guarded: AbstractSet[str] = frozenset()) -> bool:
    """Write the artifact; returns False (and writes nothing) when no
    benchmark actually ran."""
    records = benchmark_records(benchmarks, guarded)
    if not records:
        return False
    document = {
        "python": platform.python_version(),
        "platform": sys.platform,
        "peak_rss_kb": peak_rss_kb(),
        "benchmarks": records,
    }
    with open(path, "w") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return True

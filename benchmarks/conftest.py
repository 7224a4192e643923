"""Benchmark fixtures.

The full-length Table 1 study is executed once per benchmark session
and shared by every artifact bench; each bench then times its figure
generator and prints the regenerated rows/series (run with ``-s`` to
see them inline; EXPERIMENTS.md records the canonical output).
"""

import os
import sys

import pytest

from repro.experiments.cache import get_study

sys.path.insert(0, os.path.dirname(__file__))

from emit_json import write_benchmark_json  # noqa: E402

#: One seed for the whole benchmark corpus, so EXPERIMENTS.md numbers
#: are reproducible bit-for-bit.
STUDY_SEED = 2002

#: The marker that puts a bench under ``scripts/bench_compare.py``'s
#: regression gate; the exporter flags each marked bench ``"guarded"``.
GUARDED_MARKER = "guarded"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", f"{GUARDED_MARKER}: a >25% median regression of this "
        "bench fails the scripts/bench_compare.py gate")


@pytest.fixture(scope="session")
def study():
    """The full-length Table 1 sweep (built once per session)."""
    return get_study(seed=STUDY_SEED, duration_scale=1.0)


def pytest_sessionfinish(session, exitstatus):
    """Write the medians of every timed bench as a JSON artifact.

    The command line picks the benches (CI's "Time the substrate
    microbenchmarks" step names the substrate modules); each bench
    carrying the :data:`GUARDED_MARKER` marker is written with
    ``"guarded": true``.  ``BENCH_SUBSTRATE_JSON`` names the path
    (default ``BENCH_substrate.json`` in the rootdir); runs with
    ``--benchmark-disable`` produce no stats and write nothing.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    guarded = {item.nodeid for item in session.items
               if item.get_closest_marker(GUARDED_MARKER) is not None}
    path = os.environ.get(
        "BENCH_SUBSTRATE_JSON",
        os.path.join(str(session.config.rootdir), "BENCH_substrate.json"))
    if write_benchmark_json(bench_session.benchmarks, path, guarded):
        print(f"\nwrote {path}")

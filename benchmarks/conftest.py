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

#: Bench modules whose medians go into ``BENCH_substrate.json``.  Every
#: bench ``scripts/bench_compare.py`` guards must live in one of them,
#: or the gate has no baseline to compare it against.
EXPORTED_MODULES = (
    "bench_substrate_micro",
    "bench_cc_abr",
    "bench_repair",
    "bench_streaming_fold",
    "bench_flowlevel",
)


@pytest.fixture(scope="session")
def study():
    """The full-length Table 1 sweep (built once per session)."""
    return get_study(seed=STUDY_SEED, duration_scale=1.0)


def bench_module(fullname: str) -> str:
    """``benchmarks/bench_x.py::test_y`` -> ``bench_x``."""
    path = fullname.split("::", 1)[0]
    return os.path.splitext(os.path.basename(path))[0]


def pytest_sessionfinish(session, exitstatus):
    """Write substrate microbenchmark medians as a JSON artifact.

    Only benches of :data:`EXPORTED_MODULES` are exported
    (``BENCH_SUBSTRATE_JSON`` names the path, default
    ``BENCH_substrate.json`` in the rootdir); runs with
    ``--benchmark-disable`` produce no stats and write nothing.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:
        return
    substrate = [bench for bench in bench_session.benchmarks
                 if bench_module(bench.fullname) in EXPORTED_MODULES]
    path = os.environ.get(
        "BENCH_SUBSTRATE_JSON",
        os.path.join(str(session.config.rootdir), "BENCH_substrate.json"))
    if write_benchmark_json(substrate, path):
        print(f"\nwrote {path}")

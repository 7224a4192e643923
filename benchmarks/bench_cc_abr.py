"""End-to-end benches of the modern-transport study paths.

Not paper artifacts — these guard the congestion-control and ABR
sweeps the same way ``bench_substrate_micro`` guards the 2002 path:
the full Table 1 sweep at a short duration scale, once under the AIMD
controller (feedback channel + pacer stamping armed) and once over the
segment-ladder ABR transport.  CI diffs the medians against
``BENCH_substrate.json`` under the same >25% regression gate as the
baseline study benches.
"""

import pytest

from repro.cc.abr import AbrConfig
from repro.cc.base import CcConfig
from repro.experiments.runner import run_study

from bench_substrate_micro import (
    STUDY_BENCH_ROUNDS,
    STUDY_BENCH_SCALE,
    STUDY_BENCH_SEED,
)


@pytest.mark.guarded
def test_bench_study_aimd(benchmark):
    """The sequential sweep with the AIMD controller armed."""
    def sweep():
        return run_study(seed=STUDY_BENCH_SEED,
                         duration_scale=STUDY_BENCH_SCALE,
                         cc=CcConfig(kind="aimd"))

    results = benchmark.pedantic(sweep, rounds=STUDY_BENCH_ROUNDS,
                                 iterations=1)
    assert len(results) == 13


@pytest.mark.guarded
def test_bench_study_abr(benchmark):
    """The sequential sweep over the ABR segment-ladder transport."""
    def sweep():
        return run_study(seed=STUDY_BENCH_SEED,
                         duration_scale=STUDY_BENCH_SCALE,
                         abr=AbrConfig())

    results = benchmark.pedantic(sweep, rounds=STUDY_BENCH_ROUNDS,
                                 iterations=1)
    assert len(results) == 13

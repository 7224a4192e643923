"""End-to-end benches of the loss-repair study path.

Not paper artifacts — these guard the repair stack the way
``bench_cc_abr`` guards the modern transports: the full Table 1 sweep
at a short duration scale with the default FEC + NACK configuration
armed, once on a clean network (parity emission is the only overhead)
and once under the seeded burst-loss scenario (the NACK/retransmit
loop actually firing).  CI diffs the medians against
``BENCH_substrate.json`` under the same >25% regression gate as the
baseline study benches.
"""

import pytest

from repro.experiments.runner import run_study
from repro.faults.scenario import build_scenario
from repro.repair.base import RepairConfig

from bench_substrate_micro import (
    STUDY_BENCH_ROUNDS,
    STUDY_BENCH_SCALE,
    STUDY_BENCH_SEED,
)


@pytest.mark.guarded
def test_bench_study_repair(benchmark):
    """The sequential sweep with FEC + NACK armed, clean network."""
    def sweep():
        return run_study(seed=STUDY_BENCH_SEED,
                         duration_scale=STUDY_BENCH_SCALE,
                         repair=RepairConfig())

    results = benchmark.pedantic(sweep, rounds=STUDY_BENCH_ROUNDS,
                                 iterations=1)
    assert len(results) == 13


def test_bench_study_repair_burstloss(benchmark):
    """The same sweep under burst loss: the repair loop at work."""
    scenario = build_scenario("burst-loss", STUDY_BENCH_SEED)

    def sweep():
        return run_study(seed=STUDY_BENCH_SEED,
                         duration_scale=STUDY_BENCH_SCALE,
                         scenario=scenario, repair=RepairConfig())

    results = benchmark.pedantic(sweep, rounds=STUDY_BENCH_ROUNDS,
                                 iterations=1)
    assert len(results) == 13

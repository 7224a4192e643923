"""The paper's experiments: datasets, runner, and figure generators.

:mod:`repro.experiments.datasets` holds Table 1 verbatim;
:mod:`repro.experiments.spec` declares a study's options once, as one
frozen :class:`~repro.experiments.spec.StudySpec`;
:mod:`repro.experiments.conditions` samples per-run network conditions
matching Figures 1–2; :mod:`repro.experiments.runner` executes the
paper's simultaneous-stream methodology; and
:mod:`repro.experiments.figures` regenerates every table and figure.
"""

from repro.experiments.conditions import NetworkConditions, sample_conditions
from repro.experiments.datasets import build_table1_library
from repro.experiments.runner import (
    PairRunResult,
    StudyResults,
    run_pair_experiment,
    run_study,
)
from repro.experiments.spec import StudySpec

__all__ = [
    "NetworkConditions",
    "PairRunResult",
    "StudyResults",
    "StudySpec",
    "build_table1_library",
    "run_pair_experiment",
    "run_study",
    "sample_conditions",
]

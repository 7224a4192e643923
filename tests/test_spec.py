"""``StudySpec``: one frozen, picklable object per study.

The spec's fingerprint is the study cache's key, so it must be stable
across equal specs and pickle round trips and move with every single
field.  Its constructor holds the only copy of the option-combination
rules, and the public entry points fold their keyword options into it.
"""

import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro.cc.abr import AbrConfig
from repro.cc.base import CcConfig
from repro.errors import ExperimentError
from repro.experiments.datasets import table1_set_library
from repro.experiments.runner import run_study
from repro.experiments.spec import StudySpec, study_spec
from repro.faults import build_scenario
from repro.netsim.flowlevel import FlowLevelConfig
from repro.repair import RepairConfig
from repro.validate.differential import study_surface

SEED = 424
SCALE = 0.04

#: A non-default value for every field; none of them alone breaks a
#: combination rule.
CHANGED = {
    "library": lambda: table1_set_library(SCALE, 3),
    "seed": lambda: SEED + 1,
    "duration_scale": lambda: 0.5,
    "loss_probability": lambda: 0.01,
    "scenario": lambda: build_scenario("link-flap", SEED),
    "cc": lambda: CcConfig(kind="aimd"),
    "abr": lambda: AbrConfig(),
    "repair": lambda: RepairConfig(),
    "fast_path": lambda: FlowLevelConfig(),
}


def test_every_field_has_a_changed_value():
    assert set(CHANGED) == {item.name for item in fields(StudySpec)}


def test_equal_specs_share_a_fingerprint():
    one = StudySpec(library=table1_set_library(SCALE, 3), seed=SEED,
                    scenario=build_scenario("burst-loss", SEED),
                    repair=RepairConfig())
    two = StudySpec(library=table1_set_library(SCALE, 3), seed=SEED,
                    scenario=build_scenario("burst-loss", SEED),
                    repair=RepairConfig())
    assert one == two
    assert one.fingerprint() == two.fingerprint()
    assert hash(one) == hash(two)
    assert StudySpec() == StudySpec()


@pytest.mark.parametrize("name", sorted(CHANGED))
def test_changing_any_field_changes_the_fingerprint(name):
    base = StudySpec()
    changed = replace(base, **{name: CHANGED[name]()})
    assert changed.fingerprint() != base.fingerprint()
    assert changed != base
    assert changed.key()[name] != base.key()[name]
    assert all(changed.key()[other] == base.key()[other]
               for other in CHANGED if other != name)


@pytest.mark.parametrize("spec", [
    StudySpec(),
    StudySpec(library=table1_set_library(SCALE, 3), seed=SEED,
              duration_scale=SCALE, loss_probability=0.02,
              scenario=build_scenario("burst-loss", SEED),
              cc=CcConfig(kind="gcc"), repair=RepairConfig()),
    StudySpec(abr=AbrConfig()),
    StudySpec(fast_path=FlowLevelConfig(strict=True)),
], ids=["default", "every-option", "abr", "fast-path"])
def test_pickle_round_trip_keeps_the_spec(spec):
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec
    assert copy.fingerprint() == spec.fingerprint()


def test_spec_is_frozen():
    with pytest.raises(FrozenInstanceError):
        StudySpec().seed = 1


@pytest.mark.parametrize("options", [
    {"cc": CcConfig(kind="aimd"), "abr": AbrConfig()},
    {"cc": CcConfig(kind="null"), "abr": AbrConfig()},
    {"fast_path": FlowLevelConfig(), "abr": AbrConfig()},
    {"fast_path": FlowLevelConfig(), "repair": RepairConfig()},
    {"fast_path": FlowLevelConfig(strict=True),
     "repair": RepairConfig(fec_group=0)},
], ids=["cc-abr", "null-cc-abr", "fastpath-abr", "fastpath-repair",
        "fastpath-nack-only"])
def test_forbidden_combinations_raise_from_the_constructor(options):
    with pytest.raises(ExperimentError):
        StudySpec(**options)


@pytest.mark.parametrize("options", [
    {"cc": CcConfig(kind="null"), "fast_path": FlowLevelConfig()},
    {"cc": CcConfig(kind="null"), "repair": RepairConfig()},
    {"fast_path": FlowLevelConfig(),
     "repair": RepairConfig(fec_group=0, nack=False)},
    {"abr": AbrConfig(), "repair": RepairConfig()},
], ids=["null-cc-fastpath", "null-cc-repair", "fastpath-null-repair",
        "abr-repair"])
def test_allowed_combinations_construct(options):
    spec = StudySpec(**options)
    assert not spec.cc_armed


def test_armed_flags():
    assert StudySpec(cc=CcConfig(kind="aimd")).cc_armed
    assert not StudySpec(cc=CcConfig(kind="null")).cc_armed
    assert StudySpec(repair=RepairConfig()).repair_armed
    # The ABR ladder has its own retry loop and never arms repair.
    assert not StudySpec(abr=AbrConfig(),
                         repair=RepairConfig()).repair_armed
    assert StudySpec().allows_spans
    assert not StudySpec(fast_path=FlowLevelConfig()).allows_spans


def test_study_spec_folds_options_once():
    base = StudySpec(seed=SEED)
    assert study_spec() == StudySpec()
    assert study_spec(base) is base
    assert study_spec(seed=SEED) == base
    assert study_spec(base, duration_scale=SCALE) == \
        StudySpec(seed=SEED, duration_scale=SCALE)
    with pytest.raises(TypeError):
        study_spec(jobs=2)
    with pytest.raises(ExperimentError):
        study_spec(base, cc=CcConfig(kind="aimd"), abr=AbrConfig())


def test_run_study_takes_a_spec_or_its_field_names():
    spec = StudySpec(library=table1_set_library(SCALE, 3), seed=SEED,
                     fast_path=FlowLevelConfig(strict=True))
    whole = run_study(spec)
    named = run_study(library=table1_set_library(SCALE, 3), seed=SEED,
                      fast_path=FlowLevelConfig(strict=True))
    assert study_surface(whole) == study_surface(named)
    assert all(run.fastpath is not None for run in whole)

"""repro.validate tests: invariant checker, differential oracle, CLI."""

import pytest

from repro.cli import main
from repro.errors import ExperimentError, ValidationError
from repro.experiments.datasets import build_table1_library
from repro.experiments.runner import run_study
from repro.media.library import ClipLibrary
from repro.netsim.addressing import IPAddress
from repro.netsim.engine import Simulator
from repro.netsim.flowlevel import FlowLevelConfig
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.queues import DropTailQueue
from repro.telemetry import MemorySink, SpanRecorder, Telemetry
from repro.validate import (
    INVARIANT_NAMES,
    DifferentialReport,
    RunValidator,
    Violation,
    study_surface,
)
from repro.validate.differential import _fresh_telemetry


SEED = 424
SCALE = 0.04


def one_set_library(number=3, scale=SCALE):
    full = build_table1_library(duration_scale=scale)
    library = ClipLibrary()
    library.add_set(full.get_set(number))
    return library


class TestViolation:
    def test_str_renders_context(self):
        violation = Violation("queue-conservation", "enqueued 3 != 2",
                              (("run", "set1-l"), ("link", "a->b")))
        assert str(violation) == ("queue-conservation: enqueued 3 != 2 "
                                  "[run=set1-l, link=a->b]")
        assert violation.context_dict == {"run": "set1-l", "link": "a->b"}

    def test_str_without_context(self):
        assert str(Violation("clock-monotonic", "time ran backwards")) == \
            "clock-monotonic: time ran backwards"

    def test_validation_error_message(self):
        violations = [Violation("pacer-budget", f"ledger off by {i}")
                      for i in range(5)]
        error = ValidationError(violations)
        assert error.violations == violations
        assert "5 invariant violations" in str(error)
        assert "(+2 more)" in str(error)


class TestValidatedStudy:
    def test_clean_study_has_zero_violations(self):
        validator = RunValidator(raise_on_violation=False)
        telemetry = _fresh_telemetry()
        study = run_study(library=one_set_library(), seed=SEED,
                          telemetry=telemetry, jobs=1, validate=validator)
        assert len(study) == 2
        assert validator.violations == []
        assert validator.runs_checked == 2
        assert validator.checks_performed > 0

    def test_validation_does_not_perturb_the_simulation(self):
        # The acceptance bar: a validated run is byte-identical to a
        # plain run of the same seed — the checker only observes.
        plain_tel = _fresh_telemetry()
        plain = run_study(library=one_set_library(), seed=SEED,
                          telemetry=plain_tel, jobs=1)
        checked_tel = _fresh_telemetry()
        checked = run_study(library=one_set_library(), seed=SEED,
                            telemetry=checked_tel, jobs=1,
                            validate=RunValidator(raise_on_violation=False))
        assert (study_surface(plain, plain_tel)
                == study_surface(checked, checked_tel))

    def test_validate_with_parallel_jobs_is_rejected(self):
        with pytest.raises(ExperimentError, match="sequential"):
            run_study(library=one_set_library(), seed=SEED, jobs=2,
                      validate=RunValidator())

    def test_report_lists_every_invariant(self):
        validator = RunValidator(raise_on_violation=False)
        run_study(library=one_set_library(), seed=SEED, jobs=1,
                  validate=validator)
        report = validator.report()
        for name in INVARIANT_NAMES:
            assert name in report
        assert "0 violations" in report


class LeakyQueue(DropTailQueue):
    """A test double with an accounting bug: polls go uncounted."""

    def poll(self):
        packet = super().poll()
        if packet is not None:
            self.stats.dequeued -= 1
        return packet


class TestInjectedBug:
    def test_leaky_queue_is_caught_with_link_context(self):
        validator = RunValidator(raise_on_violation=False)
        sim = Simulator(seed=7, validate=validator)
        alpha = Host(sim, "alpha", IPAddress.parse("10.0.0.1"))
        beta = Host(sim, "beta", IPAddress.parse("10.0.0.2"))
        Link(sim, alpha, beta,
             queue_factory=lambda: LeakyQueue(64 * 1024))
        alpha.routing.set_default(beta)
        beta.routing.set_default(alpha)
        beta.udp.bind(5005)
        client = alpha.udp.bind_ephemeral()
        client.send(beta.address, 5005, 100)
        sim.run()

        found = validator.check_run(run="injected-bug")
        assert found, "the accounting bug went undetected"
        violation = found[0]
        assert violation.invariant == "queue-conservation"
        assert violation.context_dict["run"] == "injected-bug"
        assert violation.context_dict["link"] == "alpha->beta"
        assert "enqueued" in violation.message

    def test_raise_on_violation_raises(self):
        validator = RunValidator()  # raising is the default
        sim = Simulator(seed=7, validate=validator)
        alpha = Host(sim, "alpha", IPAddress.parse("10.0.0.1"))
        beta = Host(sim, "beta", IPAddress.parse("10.0.0.2"))
        Link(sim, alpha, beta,
             queue_factory=lambda: LeakyQueue(64 * 1024))
        alpha.routing.set_default(beta)
        beta.routing.set_default(alpha)
        beta.udp.bind(5005)
        alpha.udp.bind_ephemeral().send(beta.address, 5005, 100)
        sim.run()
        with pytest.raises(ValidationError, match="queue-conservation"):
            validator.check_run()

    def test_clean_manual_run_passes(self):
        validator = RunValidator()
        sim = Simulator(seed=7, validate=validator)
        alpha = Host(sim, "alpha", IPAddress.parse("10.0.0.1"))
        beta = Host(sim, "beta", IPAddress.parse("10.0.0.2"))
        Link(sim, alpha, beta)
        alpha.routing.set_default(beta)
        beta.routing.set_default(alpha)
        beta.udp.bind(5005)
        alpha.udp.bind_ephemeral().send(beta.address, 5005, 2000)
        sim.run()
        assert validator.check_run() == []


class TestStudySurface:
    def test_surfaces_cover_runs_and_telemetry(self):
        telemetry = _fresh_telemetry()
        study = run_study(library=one_set_library(), seed=SEED,
                          telemetry=telemetry, jobs=1)
        surfaces = study_surface(study, telemetry)
        labels = [run.label for run in study]
        for label in labels:
            assert f"run[{label}].trace" in surfaces
            assert f"run[{label}].stats" in surfaces
            assert f"run[{label}].meta" in surfaces
        assert "telemetry.summary" in surfaces
        assert "telemetry.events" in surfaces
        assert "telemetry.spans" in surfaces

    def test_without_telemetry_only_run_surfaces(self):
        study = run_study(library=one_set_library(), seed=SEED, jobs=1)
        surfaces = study_surface(study)
        assert not any(key.startswith("telemetry.") for key in surfaces)


class TestDifferentialReport:
    def test_ok_and_summary(self):
        report = DifferentialReport(
            legs={"sequential": {"a": "1"}, "parallel": {"a": "1"}})
        assert report.ok
        assert "all execution paths agree" in report.summary()

    def test_divergence_rendering(self):
        report = DifferentialReport(
            legs={"sequential": {"a": "1"}, "parallel": {"a": "2"}},
            divergences=["parallel: a digest 2 != sequential 1"])
        assert not report.ok
        assert "1 divergence" in report.summary()
        assert "! parallel" in report.summary()


class TestFastPathDifferential:
    """``--study --fast-path`` runs the fast path on every leg."""

    @pytest.mark.parametrize("strict", [False, True],
                             ids=["on", "strict"])
    def test_every_leg_runs_the_fast_path(self, strict, monkeypatch):
        import repro.validate.differential as differential

        legs = []
        plain_run_study = differential.run_study

        def spy(spec, **kwargs):
            study = plain_run_study(spec, **kwargs)
            legs.append((spec, kwargs["telemetry"], study))
            return study

        monkeypatch.setattr(differential, "run_study", spy)
        config = FlowLevelConfig(strict=strict)
        report = differential.run_differential(
            library=one_set_library(), seed=SEED, duration_scale=SCALE,
            fast_path=config)
        assert report.ok, report.summary()
        # Sequential and parallel simulate; the cache leg reloads the
        # sequential sweep.
        assert len(legs) == 2
        for spec, telemetry, study in legs:
            assert spec.fast_path == config
            assert telemetry.spans is None
            assert all(run.fastpath is not None for run in study)
        for surfaces in report.legs.values():
            assert "telemetry.spans" not in surfaces

    def test_header_names_the_transport(self, capsys):
        assert main(["validate", "--study", "--set", "3",
                     "--scale", str(SCALE), "--seed", str(SEED),
                     "--fast-path", "strict"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"# differential oracle (seed {SEED}, "
                              f"scale {SCALE}, fast-path strict)")
        assert "all execution paths agree" in out


class TestValidateCli:
    def test_invariant_sweep_exits_zero(self, capsys):
        assert main(["validate", "--set", "3", "--scale", str(SCALE),
                     "--seed", str(SEED)]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out
        for name in INVARIANT_NAMES:
            assert name in out

    def test_divergent_study_exits_nonzero(self, monkeypatch, capsys):
        import repro.validate

        def fake_differential(**kwargs):
            return DifferentialReport(
                legs={"sequential": {"a": "1"}, "parallel": {"a": "2"}},
                divergences=["parallel: a digest 2 != sequential 1"])

        monkeypatch.setattr(repro.validate, "run_differential",
                            fake_differential)
        assert main(["validate", "--study", "--set", "3",
                     "--scale", str(SCALE)]) == 1
        out = capsys.readouterr().out
        assert "1 divergence" in out

    def test_bad_scale_exits_two(self, capsys):
        assert main(["validate", "--scale", "0"]) == 2
        assert "--scale" in capsys.readouterr().err

    def test_bad_jobs_exits_two(self, capsys):
        assert main(["validate", "--jobs", "-1"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_unknown_set_exits_two(self, capsys):
        assert main(["validate", "--set", "99",
                     "--scale", str(SCALE)]) == 2
        assert "no clip set" in capsys.readouterr().err

    def test_unknown_fault_scenario_exits_two(self, capsys):
        assert main(["validate", "--faults", "nope",
                     "--scale", str(SCALE)]) == 2
        assert "unknown fault scenario" in capsys.readouterr().err


class TestDeterminismScript:
    @staticmethod
    def _load():
        import importlib.util
        import pathlib

        script = (pathlib.Path(__file__).resolve().parents[1]
                  / "scripts" / "check_determinism.py")
        spec = importlib.util.spec_from_file_location("check_det", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_mismatched_worker_output_fails(self, monkeypatch, capsys):
        import json
        import subprocess

        module = self._load()
        outputs = iter([json.dumps({"run[x].trace": "aa"}),
                        json.dumps({"run[x].trace": "bb"})])

        def fake_run(*args, **kwargs):
            return subprocess.CompletedProcess(
                args=args, returncode=0, stdout=next(outputs), stderr="")

        monkeypatch.setattr(module.subprocess, "run", fake_run)
        assert module.main([]) == 1
        err = capsys.readouterr().err
        assert "DETERMINISM FAILURE" in err
        assert "run[x].trace" in err

    def test_matching_worker_output_passes(self, monkeypatch, capsys):
        import json
        import subprocess

        module = self._load()
        payload = json.dumps({"run[x].trace": "aa"})

        def fake_run(*args, **kwargs):
            return subprocess.CompletedProcess(
                args=args, returncode=0, stdout=payload, stderr="")

        monkeypatch.setattr(module.subprocess, "run", fake_run)
        assert module.main([]) == 0
        assert "determinism ok" in capsys.readouterr().out

    def test_worker_failure_propagates(self, monkeypatch, capsys):
        import subprocess

        module = self._load()

        def fake_run(*args, **kwargs):
            return subprocess.CompletedProcess(
                args=args, returncode=3, stdout="", stderr="boom")

        monkeypatch.setattr(module.subprocess, "run", fake_run)
        assert module.main([]) == 1
        assert "boom" in capsys.readouterr().err

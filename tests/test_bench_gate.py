"""The benchmark-median gate (``scripts/bench_compare.py``) can fail.

A guarded bench must fail the gate when it is missing from either the
committed baseline or the fresh run.  The ``guarded`` pytest marker is
the one list of guarded benches: every marked bench must be timed by
CI's timing step and flagged ``"guarded"`` in ``BENCH_substrate.json``,
so the gate always has both sides to compare.
"""

import ast
import importlib.util
import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BASELINE = ROOT / "BENCH_substrate.json"


def _load_compare():
    script = ROOT / "scripts" / "bench_compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_emitter():
    script = ROOT / "benchmarks" / "emit_json.py"
    spec = importlib.util.spec_from_file_location("emit_json", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_guarded_marker(decorator) -> bool:
    """``@pytest.mark.guarded``, read from the syntax tree."""
    return (isinstance(decorator, ast.Attribute)
            and decorator.attr == "guarded"
            and isinstance(decorator.value, ast.Attribute)
            and decorator.value.attr == "mark")


def _marked_benches():
    """``{module: names}`` of every bench marked ``guarded``, read
    statically (importing a bench module needs the pytest-benchmark
    fixtures)."""
    marked = {}
    for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        tree = ast.parse(path.read_text())
        names = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and any(_is_guarded_marker(d) for d in node.decorator_list)}
        if names:
            marked[path.stem] = names
    return marked


def _guarded_names():
    return set().union(*_marked_benches().values())


def _ci_timed_modules():
    """Bench modules named by CI's "Time the substrate
    microbenchmarks" step."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    step = workflow.split("name: Time the substrate microbenchmarks", 1)[1]
    step = step.split("- name:", 1)[0]
    return set(re.findall(r"benchmarks/(bench_\w+)\.py", step))


def _write_without(tmp_path, name, drop):
    document = json.loads(BASELINE.read_text())
    document["benchmarks"] = [bench for bench in document["benchmarks"]
                              if bench["name"] != drop]
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


class TestGuardedCoverage:
    def test_every_guarded_bench_is_exported(self):
        marked = _marked_benches()
        assert marked, "no bench carries the guarded marker"
        untimed = sorted(set(marked) - _ci_timed_modules())
        assert not untimed, untimed

    def test_exporter_flags_marked_benches(self):
        class Stats:
            rounds, median, mean, stddev, min, max = 3, 1.0, 1.0, 0, 1, 1

        class Bench:
            def __init__(self, name):
                self.name = name
                self.fullname = f"benchmarks/bench_x.py::{name}"
                self.stats = Stats()

        records = _load_emitter().benchmark_records(
            [Bench("test_a"), Bench("test_b")],
            guarded={"benchmarks/bench_x.py::test_a"})
        flags = {record["name"]: record.get("guarded", False)
                 for record in records}
        assert flags == {"test_a": True, "test_b": False}

    def test_baseline_holds_every_guarded_bench(self):
        guarded = _guarded_names()
        benches = json.loads(BASELINE.read_text())["benchmarks"]
        names = {bench["name"] for bench in benches}
        assert guarded <= names, sorted(guarded - names)
        flagged = {bench["name"] for bench in benches if bench.get("guarded")}
        assert flagged == guarded


class TestGateFails:
    def test_identical_sides_pass(self, capsys):
        compare = _load_compare()
        assert compare.main([str(BASELINE), str(BASELINE)]) == 0

    @pytest.mark.parametrize("side", ["baseline", "fresh"])
    def test_guarded_bench_missing_from_one_side_fails(self, side, tmp_path,
                                                       capsys):
        compare = _load_compare()
        pruned = _write_without(tmp_path, "pruned.json",
                                "test_bench_study_repair")
        argv = ([pruned, str(BASELINE)] if side == "baseline"
                else [str(BASELINE), pruned])
        assert compare.main(argv) == 1
        assert "test_bench_study_repair" in capsys.readouterr().err

    def test_flag_on_either_side_guards(self, tmp_path, capsys):
        compare = _load_compare()
        document = json.loads(BASELINE.read_text())
        for bench in document["benchmarks"]:
            bench.pop("guarded", None)
        unflagged = tmp_path / "unflagged.json"
        unflagged.write_text(json.dumps(document))
        for bench in document["benchmarks"]:
            if bench["name"] == "test_bench_event_loop":
                bench["median_seconds"] *= 2
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(document))
        assert compare.main([str(unflagged), str(slow)]) == 0
        assert compare.main([str(BASELINE), str(slow)]) == 1
        assert compare.main([str(unflagged), str(BASELINE)]) == 0
        doubled = json.loads(BASELINE.read_text())
        for bench in doubled["benchmarks"]:
            if bench["name"] == "test_bench_event_loop":
                bench["median_seconds"] *= 2
        flagged_slow = tmp_path / "flagged_slow.json"
        flagged_slow.write_text(json.dumps(doubled))
        assert compare.main([str(unflagged), str(flagged_slow)]) == 1

    def test_advisory_bench_missing_is_only_reported(self, tmp_path, capsys):
        compare = _load_compare()
        pruned = _write_without(tmp_path, "pruned.json",
                                "test_bench_pcap_write")
        assert compare.main([pruned, str(BASELINE)]) == 0
        assert compare.main([str(BASELINE), pruned]) == 0

    def test_guarded_regression_fails(self, tmp_path, capsys):
        compare = _load_compare()
        document = json.loads(BASELINE.read_text())
        for bench in document["benchmarks"]:
            if bench["name"] == "test_bench_event_loop":
                bench["median_seconds"] *= 2
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(document))
        assert compare.main([str(BASELINE), str(slow)]) == 1

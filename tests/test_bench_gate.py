"""The benchmark-median gate (``scripts/bench_compare.py``) can fail.

A guarded bench must fail the gate when it is missing from either the
committed baseline or the fresh run, and every guarded bench must be
exported into ``BENCH_substrate.json`` by the benchmark conftest, so
the gate always has both sides to compare.
"""

import ast
import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BASELINE = ROOT / "BENCH_substrate.json"


def _load_compare():
    script = ROOT / "scripts" / "bench_compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exported_modules():
    """``EXPORTED_MODULES`` of the benchmark conftest, read statically
    (importing the conftest needs the pytest-benchmark fixtures)."""
    tree = ast.parse((ROOT / "benchmarks" / "conftest.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and node.targets[0].id == "EXPORTED_MODULES"):
            return set(ast.literal_eval(node.value))
    raise AssertionError("benchmarks/conftest.py has no EXPORTED_MODULES")


def _bench_functions(module: str):
    tree = ast.parse((ROOT / "benchmarks" / f"{module}.py").read_text())
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def _write_without(tmp_path, name, drop):
    document = json.loads(BASELINE.read_text())
    document["benchmarks"] = [bench for bench in document["benchmarks"]
                              if bench["name"] != drop]
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


class TestGuardedCoverage:
    def test_every_guarded_bench_is_exported(self):
        guarded = _load_compare().GUARDED
        exported = set()
        for module in _exported_modules():
            exported |= _bench_functions(module)
        assert guarded <= exported, sorted(guarded - exported)

    def test_baseline_holds_every_guarded_bench(self):
        guarded = _load_compare().GUARDED
        names = {bench["name"]
                 for bench in json.loads(BASELINE.read_text())["benchmarks"]}
        assert guarded <= names, sorted(guarded - names)


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

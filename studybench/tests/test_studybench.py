"""Self-tests of the benchmark: its metric table and its tracer.

Run from the repo root::

    python3 -m pytest studybench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
import time

import layers
import run
from conftest import BENCH, REPO

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _tiny_library(api):
    """One two-pair clip set, short clips: a study in about a second."""
    library = api.ClipLibrary()
    library.add_set(next(clip_set for clip_set
                         in api.datasets.build_table1_library(0.02)
                         if len(clip_set.bands) >= 2))
    return library


def _traced(api, library, seed):
    tracer = layers.Tracer()
    instrumentation = layers.Instrumentation(tracer)
    instrumentation.install()
    try:
        start = time.perf_counter_ns()
        with tracer.open(layers.ROOT):
            study = api.runner.run_study(library=library, seed=seed)
        wall = time.perf_counter_ns() - start
    finally:
        instrumentation.uninstall()
    return tracer, instrumentation, study, wall


def test_metric_names_are_well_formed():
    names = ([entry["name"] for entry in SPEC["end_to_end"]]
             + [entry["name"] for entry in SPEC["per_layer"]]
             + [entry["name"] for entry in SPEC["workloads"]])
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))


def test_spec_matches_the_benchmark_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {e["name"]: e["unit"] for e in SPEC["end_to_end"]} == \
        run.END_TO_END
    assert SPEC["per_layer"] == [
        {"name": m["name"], "unit": m["unit"], "better": m["better"]}
        for m in layers.PER_LAYER]
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_every_layer_metric_names_what_it_should_move():
    for metric in layers.PER_LAYER:
        assert metric["moves"] in run.END_TO_END, metric
        assert metric["workload"] in run.WORKLOADS, metric


def test_span_self_times_add_up(api):
    tracer, instrumentation, study, wall = _traced(
        api, _tiny_library(api), seed=5)
    assert len(study) == 2
    assert instrumentation.missing == []
    own = [totals[2] for totals in tracer.totals.values()]
    assert all(value >= 0 for value in own)
    assert sum(own) <= wall
    # Sequential: every nanosecond of the root span is some layer's.
    assert sum(own) == tracer.totals[layers.ROOT][1]
    assert tracer.totals["netsim.routing"][0] > 0
    assert tracer.counts["netsim.engine.events"] > 0
    metrics = layers.layer_metrics(tracer)
    assert all(metrics[name] >= 0 for name in metrics)


def test_wrappers_are_removed_after_the_traced_run(api):
    originals = []
    for module_name, path, _ in layers.SPANS + layers.COUNTS:
        owner, attribute, original = layers._resolve(module_name, path)
        originals.append((owner, attribute, original))
    figures = dict(api.report.ALL_FIGURES)
    pair_run = api.runner.run_pair_experiment
    _, instrumentation, _, _ = _traced(api, _tiny_library(api), seed=5)
    assert instrumentation.restored()
    for owner, attribute, original in originals:
        current = (owner.__dict__[attribute] if isinstance(owner, type)
                   else getattr(owner, attribute))
        assert current is original, f"{owner}.{attribute}"
    assert api.report.ALL_FIGURES == figures
    assert all(api.report.ALL_FIGURES[key] is figures[key]
               for key in figures)
    assert api.runner.run_pair_experiment is pair_run
    assert api.parallel.run_pair_experiment is pair_run


def test_traced_outputs_equal_untraced(api):
    library = _tiny_library(api)
    plain = api.runner.run_study(library=library, seed=9)
    _, _, traced, _ = _traced(api, library, seed=9)
    assert run.outputs(api, traced, []) == run.outputs(api, plain, [])


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "studybench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "studybench/run.py", "--workload",
         "table1-packet", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""

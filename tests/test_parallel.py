"""Parallel study execution: determinism, telemetry merge, disk cache.

The process-pool executor's contract is exactness, not approximation: a
``jobs=N`` study must be bit-identical to the sequential sweep (modulo
``Packet.uid``, a process-local diagnostic counter), and its merged
telemetry must export byte-identical artifacts.  The disk cache layer
is tested through ``REPRO_STUDY_CACHE_DIR`` so nothing touches the real
``~/.cache``.
"""

import hashlib
import os
from dataclasses import replace

import pytest

from repro.errors import ExperimentError
from repro.experiments import cache as study_cache
from repro.experiments.cache import (
    clear_cache,
    clear_disk_cache,
    disk_cache_entries,
    load_or_run_study,
)
from repro.experiments.conditions import sample_conditions
from repro.experiments.datasets import build_table1_library
from repro.experiments.runner import (
    resolve_jobs,
    run_study,
    study_conditions,
)
from repro.experiments.spec import StudySpec
from repro.media.library import ClipLibrary
from repro.netsim.engine import Simulator
from repro.telemetry import (
    MemorySink,
    SpanRecorder,
    Telemetry,
    chrome_trace,
    spans_jsonl,
    to_json,
)
from repro.telemetry.sinks import encode_event

SEED = 424
SCALE = 0.04


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def sequential():
    return run_study(seed=SEED, duration_scale=SCALE)


@pytest.fixture(scope="module")
def parallel():
    return run_study(seed=SEED, duration_scale=SCALE, jobs=2)


class TestJobsResolution:
    def test_default_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_jobs(-1)


class TestStudyConditions:
    def test_derived_without_a_simulator(self):
        # The sweep used to boot a throwaway Simulator per run just to
        # sample conditions; the derivation must draw identically to
        # the run's own simulator streams so old corpora reproduce.
        for index in (0, 3, 12):
            direct = study_conditions(SEED, index, loss_probability=0.01)
            via_sim = sample_conditions(
                Simulator(seed=SEED + index).streams.stream("conditions"),
                loss_probability=0.01)
            assert direct == via_sim

    def test_indices_draw_independently(self):
        assert study_conditions(SEED, 0) != study_conditions(SEED, 1)


class TestParallelDeterminism:
    def test_runs_in_library_order(self, sequential, parallel):
        assert [run.label for run in parallel] == \
            [run.label for run in sequential]

    def test_conditions_identical(self, sequential, parallel):
        for seq, par in zip(sequential, parallel):
            assert par.conditions == seq.conditions

    def test_traces_identical_modulo_uid(self, sequential, parallel):
        # Packet.uid is a process-global itertools.count — even two
        # sequential same-seed studies in one process disagree on it.
        for seq, par in zip(sequential, parallel):
            assert len(par.trace) == len(seq.trace)
            for mine, theirs in zip(par.trace, seq.trace):
                assert replace(mine, uid=0) == replace(theirs, uid=0)

    def test_player_stats_identical(self, sequential, parallel):
        for seq, par in zip(sequential, parallel):
            for mine, theirs in ((par.real_stats, seq.real_stats),
                                 (par.wmp_stats, seq.wmp_stats)):
                assert mine.receipts == theirs.receipts
                assert mine.frame_plays == theirs.frame_plays
                assert mine.frames_late == theirs.frames_late
                assert mine.packets_lost == theirs.packets_lost
                assert mine.playout_started_at == theirs.playout_started_at
                assert mine.eos_at == theirs.eos_at

    def test_profiles_identical(self, sequential, parallel):
        for seq, par in zip(sequential, parallel):
            assert par.real_profile() == seq.real_profile()
            assert par.wmp_profile() == seq.wmp_profile()

    def test_pings_and_stability_identical(self, sequential, parallel):
        for seq, par in zip(sequential, parallel):
            assert par.ping_before.rtts == seq.ping_before.rtts
            assert par.ping_after.rtts == seq.ping_after.rtts
            assert par.tracert.hop_count == seq.tracert.hop_count
            assert par.stability == seq.stability


class TestTelemetryMergeParity:
    """Satellite: sequential vs jobs=2 telemetry is byte-identical."""

    @staticmethod
    def traced_study(jobs):
        telemetry = Telemetry(sinks=[MemorySink(capacity=None)],
                              spans=SpanRecorder())
        run_study(seed=SEED, duration_scale=SCALE,
                  telemetry=telemetry, jobs=jobs)
        return telemetry

    @pytest.fixture(scope="class")
    def facades(self):
        return self.traced_study(jobs=1), self.traced_study(jobs=2)

    def test_metrics_json_identical(self, facades):
        seq, par = facades
        assert _digest(to_json(par)) == _digest(to_json(seq))

    def test_event_stream_identical(self, facades):
        # Replayed worker events take the parent bus's sequence
        # numbers, so the canonical JSONL encodings match line for
        # line — sequence, time, type, fields, everything.
        seq, par = facades
        seq_lines = [encode_event(e) for e in seq.memory_events()]
        par_lines = [encode_event(e) for e in par.memory_events()]
        assert par_lines == seq_lines

    def test_span_exports_identical(self, facades):
        seq, par = facades
        assert _digest(spans_jsonl(par.spans)) == \
            _digest(spans_jsonl(seq.spans))
        assert _digest(chrome_trace(par.spans)) == \
            _digest(chrome_trace(seq.spans))


def one_set_library(set_number, duration_scale=0.03):
    full = build_table1_library(duration_scale=duration_scale)
    library = ClipLibrary()
    library.add_set(full.get_set(set_number))
    return library


@pytest.fixture
def disk_cache(tmp_path, monkeypatch):
    """An isolated, empty disk cache with a clean memory layer."""
    monkeypatch.setenv(study_cache.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv(study_cache.CACHE_ENV, raising=False)
    clear_cache()
    yield tmp_path
    clear_cache()


class TestDiskCache:
    def test_run_then_disk_hit_then_clear(self, disk_cache):
        library = one_set_library(1)
        params = dict(seed=9, duration_scale=0.03, library=library)
        first, source = load_or_run_study(**params)
        assert source == "run"
        assert len(disk_cache_entries()) == 1
        # A fresh process has an empty memory layer; simulate one.
        clear_cache()
        second, source = load_or_run_study(**params)
        assert source == "disk"
        assert len(second) == len(first)
        for mine, theirs in zip(second, first):
            assert mine.trace.records == theirs.trace.records
        # Clearing the disk layer restores the miss path.
        assert clear_disk_cache() == 1
        clear_cache()
        _, source = load_or_run_study(**params)
        assert source == "run"

    def test_memory_layer_still_first(self, disk_cache):
        library = one_set_library(1)
        params = dict(seed=9, duration_scale=0.03, library=library)
        first, _ = load_or_run_study(**params)
        again, source = load_or_run_study(**params)
        assert source == "memory"
        assert again is first

    def test_escape_hatch_disables_disk(self, disk_cache, monkeypatch):
        monkeypatch.setenv(study_cache.CACHE_ENV, "0")
        params = dict(seed=9, duration_scale=0.03,
                      library=one_set_library(1))
        load_or_run_study(**params)
        assert disk_cache_entries() == []
        clear_cache()
        _, source = load_or_run_study(**params)
        assert source == "run"

    def test_code_fingerprint_invalidates(self, disk_cache, monkeypatch):
        params = dict(seed=9, duration_scale=0.03,
                      library=one_set_library(1))
        load_or_run_study(**params)
        clear_cache()
        # A code change means a different digest, hence a miss.
        monkeypatch.setattr(study_cache, "_code_fingerprint", "0" * 16)
        _, source = load_or_run_study(**params)
        assert source == "run"


def _fingerprint(library, seed=9, duration_scale=0.03):
    return StudySpec(library=library, seed=seed,
                     duration_scale=duration_scale).fingerprint()


class TestStudyKeying:
    """One spec fingerprint keys both cache layers."""

    def test_key_is_shared_and_stable(self):
        library = one_set_library(1)
        assert _fingerprint(library) == _fingerprint(one_set_library(1))
        assert _fingerprint(None) == _fingerprint(None)

    def test_libraries_with_equal_scalars_never_alias(self):
        # Same (seed, scale, loss), different content: distinct keys.
        assert _fingerprint(one_set_library(1)) != \
            _fingerprint(one_set_library(2))

    def test_disk_layer_keeps_libraries_apart(self, disk_cache):
        scalars = dict(seed=9, duration_scale=0.03)
        first, _ = load_or_run_study(library=one_set_library(1), **scalars)
        second, _ = load_or_run_study(library=one_set_library(2), **scalars)
        assert len(disk_cache_entries()) == 2
        clear_cache()
        # Each key reloads its own sweep from disk, never the other's.
        reloaded_one, source = load_or_run_study(
            library=one_set_library(1), **scalars)
        assert source == "disk"
        reloaded_two, source = load_or_run_study(
            library=one_set_library(2), **scalars)
        assert source == "disk"
        assert ({run.set_number for run in reloaded_one}
                == {run.set_number for run in first})
        assert ({run.set_number for run in reloaded_two}
                == {run.set_number for run in second})
        assert ({run.set_number for run in reloaded_one}
                != {run.set_number for run in reloaded_two})

"""CLI tests (fast paths; the study command is covered at tiny scale)."""

import pytest

from repro.cli import main


class TestTable1Command:
    def test_prints_the_clip_table(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "284.0/323.1" in out
        assert "Movie clip" in out


class TestGenerateCommand:
    def test_generates_and_profiles(self, capsys):
        assert main(["generate", "wmp", "307.2", "10"]) == 0
        out = capsys.readouterr().out
        assert "mediaplayer" in out
        assert "67%" in out

    def test_exports_pcap_and_csv(self, tmp_path, capsys):
        pcap_path = str(tmp_path / "flow.pcap")
        csv_path = str(tmp_path / "flow.csv")
        assert main(["generate", "real", "100", "10",
                     "--pcap", pcap_path, "--csv", csv_path]) == 0
        from repro.capture.pcap import read_pcap
        from repro.capture.serialize import read_csv

        assert len(read_pcap(pcap_path)) > 0
        assert len(read_csv(csv_path)) > 0


class TestPcapInfoCommand:
    def test_summarizes_a_file(self, tmp_path, capsys):
        pcap_path = str(tmp_path / "flow.pcap")
        main(["generate", "wmp", "307.2", "10", "--pcap", pcap_path])
        capsys.readouterr()
        assert main(["pcap-info", pcap_path]) == 0
        out = capsys.readouterr().out
        assert "fragmentation: 66" in out
        assert "packets" in out


class TestFigureCommand:
    def test_unknown_figure_errors(self, capsys):
        assert main(["figure", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown figure" in err

    def test_single_figure_small_scale(self, capsys):
        assert main(["figure", "fig02", "--scale", "0.12",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "CDF of Number of Hops" in out


class TestProbeCommand:
    def test_probe_reports_friendliness(self, capsys):
        assert main(["probe", "wmp", "307.2", "0.10",
                     "--duration", "15"]) == 0
        out = capsys.readouterr().out
        assert "offered load" in out
        assert "friendliness index" in out

    def test_probe_with_scaling(self, capsys):
        assert main(["probe", "wmp", "307.2", "0.05",
                     "--duration", "15", "--scaling"]) == 0
        out = capsys.readouterr().out
        assert "final rate scale" in out


class TestBoundaryCommand:
    def test_boundary_prints_profiles(self, capsys):
        assert main(["boundary", "--clients", "4",
                     "--duration", "20", "--kbps", "120"]) == 0
        out = capsys.readouterr().out
        assert "realplayer" in out
        assert "cliff factor" in out


class TestFigureCsvOption:
    def test_writes_csv(self, tmp_path, capsys):
        csv_path = str(tmp_path / "fig.csv")
        assert main(["figure", "fig02", "--scale", "0.12",
                     "--seed", "5", "--csv", csv_path]) == 0
        with open(csv_path) as stream:
            assert "series,x,y" in stream.read()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestTelemetryCommand:
    def test_full_instrumented_sweep_and_exports(self, tmp_path, capsys):
        import json

        json_path = tmp_path / "summary.json"
        events_path = tmp_path / "events.jsonl"
        series_path = tmp_path / "series.csv"
        code = main(["telemetry", "--seed", "5", "--scale", "0.05",
                     "--json", str(json_path),
                     "--events", str(events_path),
                     "--series-csv", str(series_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "pair runs" in out
        assert "per-hop queue depth" in out
        assert "rebuffer" in out.lower() or "playout" in out.lower()

        # The JSON export round-trips through its own exporter.
        text = json_path.read_text()
        loaded = json.loads(text)
        assert json.dumps(loaded, sort_keys=True, indent=2) == text
        assert loaded["counters"]
        assert any(entry["name"] == "queue.drops" or
                   entry["name"].startswith("link.")
                   for entry in loaded["counters"])

        lines = events_path.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert {"type", "time", "seq"} <= set(records[0])
        assert any(record["type"] == "stream_start" for record in records)

        series_lines = series_path.read_text().splitlines()
        assert series_lines[0] == "name,labels,time,value"
        assert any(line.startswith("queue.bytes,") for line in series_lines)

    def test_profile_flag_prints_hot_callbacks(self, capsys):
        code = main(["telemetry", "--seed", "5", "--scale", "0.01",
                     "--profile", "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "events/s" in out
        assert "_deliver" in out or "callback" in out.lower()

    def test_nonpositive_top_is_a_usage_error(self, capsys):
        assert main(["telemetry", "--top", "0"]) == 2
        assert "--top" in capsys.readouterr().err

    def test_run_without_telemetry_exits_nonzero(self, monkeypatch, capsys):
        import repro.experiments.runner as runner

        # A study that never touches the telemetry facade records no
        # counters and no events; the CLI must refuse to summarize it.
        monkeypatch.setattr(runner, "run_study", lambda **kwargs: [])
        assert main(["telemetry", "--seed", "5", "--scale", "0.01"]) == 1
        assert "no telemetry" in capsys.readouterr().err


class TestSpansCommand:
    def test_small_study_with_exports(self, tmp_path, capsys):
        import json

        json_path = tmp_path / "summary.json"
        chrome_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "spans.jsonl"
        code = main(["spans", "--seed", "2002", "--scale", "0.03",
                     "--top", "2",
                     "--json", str(json_path),
                     "--chrome-trace", str(chrome_path),
                     "--jsonl", str(jsonl_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "latency attribution" in out
        assert "buffer wait" in out
        assert "slowest ADUs (top 2)" in out

        # The summary export validates against the checked-in schema
        # exactly as the CI smoke step does.
        import importlib.util
        import pathlib

        script = (pathlib.Path(__file__).resolve().parents[1]
                  / "scripts" / "validate_spans_export.py")
        spec = importlib.util.spec_from_file_location("validator", script)
        validator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(validator)
        schema_path = (pathlib.Path(__file__).resolve().parents[1]
                       / "docs" / "schemas" / "spans_summary.schema.json")
        document = json.loads(json_path.read_text())
        schema = json.loads(schema_path.read_text())
        assert validator.validate(document, schema) == []
        assert document["adu_count"] > 0
        assert set(document["aggregate"]) == {"real", "wmp"}

        trace = json.loads(chrome_path.read_text())
        assert {event["ph"] for event in trace["traceEvents"]} == {"M", "X"}
        assert all(json.loads(line)["kind"]
                   for line in jsonl_path.read_text().splitlines())

    def test_nonpositive_top_is_a_usage_error(self, capsys):
        assert main(["spans", "--top", "0"]) == 2
        assert "--top" in capsys.readouterr().err

    def test_run_without_traces_exits_nonzero(self, monkeypatch, capsys):
        import repro.experiments.runner as runner

        monkeypatch.setattr(runner, "run_study", lambda **kwargs: [])
        assert main(["spans", "--seed", "5", "--scale", "0.01"]) == 1
        assert "no completed ADU traces" in capsys.readouterr().err


class TestCcCommand:
    def test_list_prints_every_controller(self, capsys):
        assert main(["cc", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("aimd", "gcc", "null"):
            assert name in out

    def test_aimd_run_prints_state_summary(self, capsys):
        code = main(["cc", "aimd", "--scale", "0.06", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "state samples" in out
        assert "fingerprint cc-aimd:" in out
        assert "aimd/real" in out
        assert "aimd/wmp" in out

    def test_null_controller_empty_report_exits_one(self, capsys):
        assert main(["cc", "null", "--scale", "0.06"]) == 1
        err = capsys.readouterr().err
        assert "no cc_state samples" in err


class TestModernScorecardCommand:
    def test_then_vs_now_table_and_svg(self, tmp_path, capsys):
        svg_path = tmp_path / "modern.svg"
        code = main(["scorecard", "--modern", "--scale", "0.03",
                     "--transports", "2002,abr",
                     "--svg", str(svg_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "metric (then vs. now)" in out
        assert "fig04/05" in out
        assert "startup delay" in out
        # Every Table 1 clip set gets its own delivered-rate row.
        for number in range(1, 7):
            assert f"set {number} delivered" in out
        assert svg_path.read_text().startswith("<svg")


class TestBadArgumentExitCodes:
    """Every subcommand's bad-argument paths: stderr message, status 2."""

    @pytest.mark.parametrize("argv,needle", [
        (["study", "--scale", "0"], "--scale"),
        (["study", "--scale", "-1"], "--scale"),
        (["study", "--jobs", "-1"], "--jobs"),
        (["telemetry", "--scale", "0"], "--scale"),
        (["telemetry", "--jobs", "-2"], "--jobs"),
        (["spans", "--scale", "-0.5"], "--scale"),
        (["spans", "--jobs", "-1"], "--jobs"),
        (["figure", "fig02", "--scale", "0"], "--scale"),
        (["scorecard", "--scale", "0"], "--scale"),
        (["generate", "wmp", "0", "10"], "kbps"),
        (["generate", "wmp", "-5", "10"], "kbps"),
        (["generate", "wmp", "100", "0"], "duration"),
        (["probe", "wmp", "0", "0.1"], "kbps"),
        (["probe", "wmp", "100", "1.5"], "loss"),
        (["probe", "wmp", "100", "-0.1"], "loss"),
        (["probe", "wmp", "100", "0.1", "--rtt", "0"], "--rtt"),
        (["probe", "wmp", "100", "0.1", "--duration", "0"], "--duration"),
        (["boundary", "--clients", "0"], "--clients"),
        (["boundary", "--duration", "0"], "--duration"),
        (["boundary", "--kbps", "0"], "--kbps"),
        (["faults", "no-such-scenario"], "unknown fault scenario"),
        (["faults", "link-flap", "--scale", "0"], "--scale"),
        (["validate", "--scale", "0"], "--scale"),
        (["validate", "--jobs", "-1"], "--jobs"),
        (["validate", "--cc", "vegas"], "unknown congestion controller"),
        (["cc"], "controller name is required"),
        (["cc", "bbr2"], "unknown congestion controller"),
        (["cc", "aimd", "--scale", "0"], "--scale"),
        (["cc", "aimd", "--set", "99"], "no clip set 99"),
        (["scorecard", "--modern", "--scale", "0"], "--scale"),
        (["scorecard", "--modern", "--jobs", "-1"], "--jobs"),
        (["scorecard", "--modern", "--transports", "2002,quic"],
         "unknown transport"),
        (["validate", "--cc", "aimd", "--abr"], "mutually exclusive"),
        (["validate", "--fast-path", "--abr"], "mutually exclusive"),
        (["validate", "--fast-path", "strict", "--repair"],
         "null repair config"),
    ])
    def test_bad_argument_exits_two(self, argv, needle, capsys):
        assert main(argv) == 2
        assert needle in capsys.readouterr().err

    def test_pcap_info_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["pcap-info", str(tmp_path / "nope.pcap")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_pcap_info_garbage_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "garbage.pcap"
        path.write_bytes(b"this is not a capture file at all")
        assert main(["pcap-info", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 2


def _run_repro(argv, env_extra=None, timeout=120):
    """``python -m repro argv`` in a fresh process (text result)."""
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "repro"] + argv,
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


class TestOptionCombinations:
    """A spec the constructor refuses exits 2 with its message."""

    @pytest.mark.parametrize("options", [
        ["--cc", "aimd", "--abr"],
        ["--fast-path", "--abr"],
        ["--fast-path", "--repair"],
    ], ids=lambda options: "+".join(o.strip("-") for o in options))
    def test_bad_combination_exits_two_without_traceback(self, options):
        done = _run_repro(["validate", "--set", "3", "--scale", "0.04"]
                          + options)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ")
        assert done.stdout == ""


class TestNonFiniteScale:
    """``--scale`` rejects nan/inf at parse time, on every command."""

    COMMANDS = [["study"], ["telemetry"], ["spans"], ["figure", "fig02"],
                ["scorecard"], ["faults", "link-flap"], ["cc", "aimd"],
                ["repair"], ["validate"]]

    @pytest.mark.parametrize("command", COMMANDS,
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN",
                                       "1e999", "abc"])
    def test_non_finite_scale_exits_two(self, command, value, capsys):
        assert main(command + [f"--scale={value}"]) == 2
        err = capsys.readouterr().err
        assert "--scale must be a finite positive number" in err
        assert value in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_study_process_exits_two_without_traceback(self, value):
        result = _run_repro(["study", "--scale", value])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "--scale must be a finite positive number" in result.stderr


class TestNonFiniteNumbers:
    """Every float option rejects nan/inf at parse time, like --scale.

    Positionals come after ``--`` so that ``-inf`` reaches the type
    instead of being read by argparse as an option.
    """

    CASES = [
        (lambda v: ["probe", "real", "--", v, "0.05"], "kbps", True),
        (lambda v: ["probe", "real", "--", "100", v], "loss", False),
        (lambda v: ["probe", "real", f"--rtt={v}", "100", "0.05"],
         "--rtt", True),
        (lambda v: ["probe", "real", f"--duration={v}", "100", "0.05"],
         "--duration", True),
        (lambda v: ["boundary", f"--duration={v}"], "--duration", True),
        (lambda v: ["boundary", f"--kbps={v}"], "--kbps", True),
        (lambda v: ["generate", "real", "--", v, "10"], "kbps", True),
        (lambda v: ["generate", "real", "--", "100", v], "duration", True),
        (lambda v: ["watch", "runs.jsonl", f"--z={v}"], "--z", False),
        (lambda v: ["watch", "runs.jsonl", f"--min-delta={v}"],
         "--min-delta", False),
        (lambda v: ["watch", "runs.jsonl", f"--idle-timeout={v}"],
         "--idle-timeout", False),
    ]

    @pytest.mark.parametrize("build,name,positive", CASES,
                             ids=[f"{case[0]('x')[0]}-{case[1]}"
                                  for case in CASES])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN",
                                       "1e999", "abc"])
    def test_non_finite_exits_two(self, build, name, positive, value,
                                  capsys):
        assert main(build(value)) == 2
        err = capsys.readouterr().err
        kind = "finite positive number" if positive else "finite number"
        assert f"{name} must be a {kind}" in err
        assert value in err

    @pytest.mark.parametrize("argv", [
        ["probe", "real", "nan", "0.05"],
        ["generate", "real", "nan", "10"],
        ["boundary", "--kbps", "nan"],
        ["boundary", "--duration", "inf"],
    ], ids=lambda argv: "-".join(argv))
    def test_process_exits_two_without_traceback(self, argv):
        result = _run_repro(argv)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert "must be a finite" in result.stderr


class TestStudyTinyScale:
    def test_short_clips_render_fig10_as_na(self, tmp_path):
        # At scale 0.04 the clips are too short for Fig. 10's buffering
        # analysis; the report says so in that figure's row and goes on.
        html_path = tmp_path / "report.html"
        result = _run_repro(["study", "--scale", "0.04",
                             "--html", str(html_path)],
                            {"REPRO_STUDY_CACHE": "0",
                             "REPRO_STUDY_CACHE_DIR": str(tmp_path)})
        assert result.returncode == 0
        assert "Traceback" not in result.stderr
        out = result.stdout
        fig10 = out[out.index("== fig10"):].splitlines()
        assert fig10[0] == "== fig10 =="
        assert fig10[1].startswith("n/a: bandwidth series too short")
        assert "== fig11:" in out
        assert "fig10: n/a: bandwidth series too short" in (
            html_path.read_text())

    def test_figure_command_reports_na(self, capsys, monkeypatch,
                                       tmp_path):
        monkeypatch.setenv("REPRO_STUDY_CACHE", "0")
        monkeypatch.setenv("REPRO_STUDY_CACHE_DIR", str(tmp_path))
        assert main(["figure", "fig10", "--scale", "0.04"]) == 1
        assert "fig10: n/a: " in capsys.readouterr().err

class TestStudyStreamingOptions:
    def test_progress_and_stream_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "runs.jsonl"
        # --stream-jsonl bypasses the caches, so this is always a
        # fresh simulation with live heartbeats.
        assert main(["study", "--scale", "0.1", "--seed", "3",
                     "--progress", "--stream-jsonl", str(path)]) == 0
        captured = capsys.readouterr()
        assert "peak rss" in captured.out
        assert "# streamed:" in captured.out
        assert "cache bypassed" in captured.out
        # Non-TTY progress: one deterministic done-line per run, in
        # library order, on stderr.
        lines = [line for line in captured.err.splitlines()
                 if line.startswith("run ")]
        assert len(lines) == 13
        assert lines[0].startswith("run 1/13 done ")
        assert lines[-1].startswith("run 13/13 done ")
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) == 13
        assert records[0]["index"] == 0
        for key in ("label", "rebuffer_ratio", "loss_rate",
                    "delivered_rate_kbps", "events_folded"):
            assert key in records[0]

    def test_unwritable_stream_path_exits_two(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "runs.jsonl"
        assert main(["study", "--stream-jsonl", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestWatchCommand:
    @staticmethod
    def _write(tmp_path, values, metric="rebuffer_ratio"):
        import json

        path = tmp_path / "stream.jsonl"
        path.write_text("".join(
            json.dumps({"index": i, "label": f"run{i}", metric: value})
            + "\n" for i, value in enumerate(values)))
        return str(path)

    def test_clean_records_exit_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, [0.01] * 8)
        assert main(["watch", path]) == 0
        out = capsys.readouterr().out
        assert "no anomalies" in out
        assert "8 run records" in out

    def test_spike_exits_one_with_alert(self, tmp_path, capsys):
        path = self._write(tmp_path, [0.01, 0.012, 0.011, 0.013, 0.9])
        assert main(["watch", path]) == 1
        out = capsys.readouterr().out
        assert "ALERT rebuffer_ratio" in out
        assert "1 watch rule trip" in out

    def test_follow_mode_reads_static_file(self, tmp_path, capsys):
        path = self._write(tmp_path, [0.01] * 6)
        assert main(["watch", path, "--follow",
                     "--idle-timeout", "0"]) == 0
        assert "no anomalies" in capsys.readouterr().out

    def test_unknown_metric_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, [0.01])
        assert main(["watch", path, "--metric", "bogus"]) == 2
        assert "unknown watch metric" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["watch", str(path)]) == 1
        assert "no run records" in capsys.readouterr().err

    def test_garbage_line_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"index": 0}\nnot json\n')
        assert main(["watch", str(path)]) == 1
        assert "unparseable" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,needle", [
        (["--z", "0"], "z-threshold"),
        (["--window", "1"], "window"),
        (["--min-baseline", "1"], "min-baseline"),
        (["--min-delta", "-0.1"], "min-delta"),
        (["--metric", " , "], "--metric"),
        (["--idle-timeout", "-1"], "--idle-timeout"),
    ])
    def test_bad_knobs_exit_two(self, tmp_path, argv, needle, capsys):
        path = self._write(tmp_path, [0.01])
        assert main(["watch", path] + argv) == 2
        assert needle in capsys.readouterr().err


class TestTelemetryRingCapacity:
    def test_dropped_warning_on_overflow(self, capsys):
        assert main(["telemetry", "--scale", "0.02", "--seed", "3",
                     "--ring-capacity", "200"]) == 0
        err = capsys.readouterr().err
        assert "dropped=" in err
        assert "--ring-capacity" in err

    def test_negative_capacity_exits_two(self, capsys):
        assert main(["telemetry", "--ring-capacity", "-5"]) == 2
        assert "--ring-capacity" in capsys.readouterr().err

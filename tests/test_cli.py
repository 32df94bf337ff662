"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "coterie", "viking"])
        assert args.system == "coterie"
        assert args.game == "viking"
        assert args.players == 2
        assert args.duration == 10.0

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "warpdrive", "viking"])

    def test_unknown_game_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["preprocess", "tetris"])

    @pytest.mark.parametrize("argv", [
        ["run", "coterie", "pool", "--kernels", "scalar"],
        ["preprocess", "pool", "--kernels", "scalar"],
        ["preprocess", "pool", "--workers", "2"],
    ], ids=["run-kernels", "preprocess-kernels", "preprocess-workers"])
    def test_execution_mode_flags_are_gone(self, argv, capsys):
        """How the bits get computed is not an option."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", "-3", "33", "two"])
    def test_players_out_of_range_rejected(self, bad, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "coterie", "viking", bad])
        err = capsys.readouterr().err
        assert "players must be" in err

    def test_players_range_accepted(self):
        args = build_parser().parse_args(["run", "coterie", "viking", "32"])
        assert args.players == 32
        args = build_parser().parse_args(["run", "coterie", "viking", "1"])
        assert args.players == 1


class TestCommands:
    def test_games_lists_all_nine(self, capsys):
        assert main(["games"]) == 0
        out = capsys.readouterr().out
        for name in ("viking", "cts", "racing", "pool", "corridor"):
            assert name in out

    def test_run_mobile_pool(self, capsys):
        assert main(["run", "mobile", "pool", "1", "--duration", "2"]) == 0
        out = capsys.readouterr().out
        assert "FPS" in out
        assert "power draw" in out

    def test_preprocess_pool(self, capsys):
        assert main(["preprocess", "pool"]) == 0
        out = capsys.readouterr().out
        assert "leaf regions" in out
        assert "cutoff radii" in out

    def test_run_with_loss_prints_resilience(self, capsys):
        assert main(["run", "multi_furion", "pool", "1",
                     "--duration", "2", "--loss", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "resilience" in out

    def test_run_with_faults(self, capsys):
        assert main(["run", "multi_furion", "pool", "1", "--duration", "2",
                     "--faults", "stall@0-500:10"]) == 0
        assert "resilience" in capsys.readouterr().out

    def test_run_clean_omits_resilience(self, capsys):
        assert main(["run", "mobile", "pool", "1", "--duration", "2"]) == 0
        assert "resilience" not in capsys.readouterr().out

    def test_bad_faults_spec_is_an_error(self, capsys):
        assert main(["run", "mobile", "pool", "1", "--duration", "2",
                     "--faults", "freeze@0-100"]) == 2
        assert "invalid --faults" in capsys.readouterr().err

    def test_bad_faults_argument_names_the_entry(self, capsys):
        assert main(["run", "coterie", "pool", "2", "--duration", "2",
                     "--faults", "dip@0-100:0.5,stall@5-9:zz"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "bad fault entry 'stall@5-9:zz'" in line


class TestChurnCommands:
    def test_run_with_churn_prints_membership(self, capsys):
        assert main(["run", "coterie", "pool", "2", "--duration", "3",
                     "--churn", "join@800,leave@2000:0"]) == 0
        out = capsys.readouterr().out
        assert "membership" in out
        assert "joins" in out
        assert "epochs" in out
        assert "0 violations" in out

    def test_bad_churn_spec_is_an_error(self, capsys):
        assert main(["run", "coterie", "pool", "1", "--duration", "2",
                     "--churn", "bogus@100"]) == 2
        assert "invalid --churn" in capsys.readouterr().err

    def test_churn_slot_outside_session_exits_2_before_running(self, capsys,
                                                               monkeypatch):
        def reached(*_args, **_kwargs):
            raise AssertionError("started work on an out-of-range churn slot")

        monkeypatch.setattr("repro.cli.run_system", reached)
        assert main(["run", "coterie", "pool", "2", "--churn", "leave@100:9"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "invalid --churn spec: churn schedule references slot 9 but the "
            "session only has slots 0..1"
        ]
        assert captured.out == ""

    def test_churn_slot_of_a_joiner_is_accepted(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*_args, **_kwargs):
            raise Reached

        monkeypatch.setattr("repro.cli.run_system", reached)
        with pytest.raises(Reached):
            main(["run", "coterie", "pool", "2", "--churn", "join@100,leave@200:2"])

    def test_churn_on_mobile_is_an_error(self, capsys):
        assert main(["run", "mobile", "pool", "1", "--duration", "2",
                     "--churn", "join@100"]) == 2
        assert "networked system" in capsys.readouterr().err

    def test_players_above_max_players_is_an_error(self, capsys):
        assert main(["run", "coterie", "pool", "4", "--duration", "2",
                     "--max-players", "2"]) == 2
        assert "exceeds --max-players" in capsys.readouterr().err

    def test_run_where_nobody_displays_exits_cleanly(self, capsys):
        """Both clients are evicted while blocked in their first fetch."""
        assert main(["run", "coterie", "pool", "2", "--duration", "4",
                     "--seed", "1", "--wifi-mbps", "5",
                     "--churn", "leave@500:1,rejoin@700:1"]) == 0
        out = capsys.readouterr().out
        assert "no player displayed a frame" in out
        assert "2 evicted" in out

    def test_clean_run_omits_membership(self, capsys):
        assert main(["run", "coterie", "pool", "1", "--duration", "2"]) == 0
        assert "membership" not in capsys.readouterr().out


class TestAdaptiveCommands:
    def test_abr_with_trace_prints_adaptation(self, capsys):
        assert main(["run", "coterie", "pool", "2", "--duration", "3",
                     "--trace-profile", "bufferbloat", "--abr"]) == 0
        out = capsys.readouterr().out
        assert "adaptation" in out
        assert "CRF ladder" in out
        assert "frame drops" in out

    def test_trace_profile_without_abr_runs_fixed(self, capsys):
        assert main(["run", "coterie", "pool", "1", "--duration", "2",
                     "--trace-profile", "cellular"]) == 0
        assert "adaptation" not in capsys.readouterr().out

    def test_trace_profile_from_file(self, tmp_path, capsys):
        trace = tmp_path / "capacity.txt"
        trace.write_text("0 1.0\n500 0.3\n1500 1.0\n")
        assert main(["run", "coterie", "pool", "1", "--duration", "2",
                     "--trace-profile", str(trace), "--abr"]) == 0
        assert "adaptation" in capsys.readouterr().out

    def test_unknown_trace_profile_is_an_error(self, capsys):
        assert main(["run", "coterie", "pool", "1", "--duration", "2",
                     "--trace-profile", "wormhole"]) == 2
        assert "invalid --trace-profile" in capsys.readouterr().err

    def test_abr_on_mobile_is_an_error(self, capsys):
        assert main(["run", "mobile", "pool", "1", "--duration", "2",
                     "--abr"]) == 2
        assert "networked system" in capsys.readouterr().err

    def test_clean_run_omits_adaptation(self, capsys):
        assert main(["run", "coterie", "pool", "1", "--duration", "2"]) == 0
        assert "adaptation" not in capsys.readouterr().out


class TestTelemetryCommands:
    def test_run_writes_trace_and_events(self, tmp_path, capsys):
        import json

        from repro.telemetry import validate_chrome_trace

        trace = tmp_path / "trace.json"
        events = tmp_path / "events.jsonl"
        assert main(["run", "coterie", "pool", "2", "--duration", "2",
                     "--faults", "dip@400-1100:0.05",
                     "--trace", str(trace), "--events", str(events)]) == 0
        out = capsys.readouterr().out
        assert "trace" in out and "event log" in out
        loaded = json.loads(trace.read_text())
        validate_chrome_trace(loaded)
        assert any(ev.get("ph") == "X" for ev in loaded)
        assert events.read_text().count("\n") > 10

    def test_report_from_events(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(["run", "coterie", "pool", "1", "--duration", "2",
                     "--events", str(events)]) == 0
        capsys.readouterr()
        assert main(["report", str(events)]) == 0
        out = capsys.readouterr().out
        assert "frame-budget attribution" in out
        assert "stage" in out and "p95 ms" in out

    def test_report_missing_file_is_an_error(self, capsys):
        assert main(["report", "/nonexistent/events.jsonl"]) == 2
        assert "cannot read event log" in capsys.readouterr().err

    def test_report_refuses_unknown_schema(self, tmp_path, capsys):
        bad = tmp_path / "events.jsonl"
        bad.write_text('{"v": 99, "kind": "span", "name": "x", "player": 0, '
                       '"lane": "frame", "t0_ms": 0, "dur_ms": 1}\n')
        assert main(["report", str(bad)]) == 2
        assert "schema version" in capsys.readouterr().err

    def test_run_perf_prints_stage_table(self, capsys):
        assert main(["run", "mobile", "pool", "1", "--duration", "2",
                     "--perf"]) == 0
        out = capsys.readouterr().out
        assert "run.simulate" in out
        assert "calls" in out

    def test_run_untraced_prints_tail_latencies(self, capsys):
        assert main(["run", "mobile", "pool", "1", "--duration", "2"]) == 0
        out = capsys.readouterr().out
        assert "p95" in out and "p99" in out


_RUN = ["run", "mobile", "pool", "1", "--duration", "1"]


class TestUnwritableOutputs:
    """An output path that cannot be written is refused up front."""

    @pytest.mark.parametrize("argv, flag", [
        (_RUN, "--metrics"),
        (_RUN, "--openmetrics"),
        (_RUN, "--trace"),
        (_RUN, "--events"),
        (["fleet"], "--metrics"),
        (["fleet"], "--openmetrics"),
    ])
    def test_exits_2_before_simulating(self, argv, flag, tmp_path, capsys,
                                       monkeypatch):
        def simulated(*_args, **_kwargs):
            raise AssertionError("simulated before checking the output path")

        monkeypatch.setattr("repro.cli.run_system", simulated)
        monkeypatch.setattr("repro.cli.run_fleet", simulated)
        path = tmp_path / "no_such_dir" / "out"
        assert main([*argv, flag, str(path)]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert flag in line and str(path) in line
        assert captured.out == ""


class TestBadConfiguration:
    """A flag value the config classes reject is one stderr line and exit
    2 — never a traceback, and never after work has started."""

    @pytest.fixture(autouse=True)
    def nothing_runs(self, monkeypatch):
        def reached(*_args, **_kwargs):
            raise AssertionError("started work on an invalid configuration")

        for name in ("run_system", "prepare_artifacts", "run_fleet"):
            monkeypatch.setattr(f"repro.cli.{name}", reached)

    @pytest.mark.parametrize("flag, value, message", [
        ("--duration", "0", "duration_s must be positive"),
        ("--wifi-mbps", "0", "wifi_mbps must be positive"),
        ("--loss", "2", "loss_rate must be in [0, 1)"),
    ], ids=["duration", "wifi-mbps", "loss"])
    def test_run_reports_invalid_configuration(self, flag, value, message, capsys):
        assert main(["run", "coterie", "pool", "2", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"invalid run configuration: {message}"]
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["run", "coterie", "pool", "2"],
        ["preprocess", "pool"],
        ["fleet"],
    ], ids=["run", "preprocess", "fleet"])
    def test_negative_seed_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--seed", "-1"])
        assert exit_info.value.code == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("relative, reason", [
        ("a_file", "File exists"),
        ("a_file/below", "Not a directory"),
    ])
    def test_unusable_cache_dir_exits_2_before_preprocessing(
        self, relative, reason, tmp_path, capsys
    ):
        (tmp_path / "a_file").write_text("not a directory")
        path = tmp_path / relative
        assert main(["preprocess", "pool", "--cache-dir", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"cannot use --cache-dir {path}: {reason}"]
        assert captured.out == ""


class TestMetricsCli:
    """``run --metrics/--openmetrics/--dashboard`` and ``report`` on dumps."""

    def _dump(self, tmp_path, name="m.jsonl"):
        path = tmp_path / name
        assert main(["run", "mobile", "pool", "1", "--duration", "2",
                     "--metrics", str(path)]) == 0
        return path

    def test_run_writes_metrics_and_openmetrics(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        om = tmp_path / "om.txt"
        assert main(["run", "mobile", "pool", "1", "--duration", "2",
                     "--metrics", str(metrics),
                     "--openmetrics", str(om)]) == 0
        out = capsys.readouterr().out
        assert "-- metrics --" in out
        assert "slo deadline_miss_rate" in out
        from repro.telemetry import read_metrics_jsonl

        dump = read_metrics_jsonl(metrics)
        assert "frames_total" in dump.series
        assert any(s["name"] == "deadline_miss_rate" for s in dump.slos)
        assert om.read_text().endswith("# EOF\n")

    def test_run_dashboard_renders_frames(self, tmp_path, capsys):
        assert main(["run", "mobile", "pool", "1", "--duration", "2",
                     "--dashboard"]) == 0
        out = capsys.readouterr().out
        assert "sim t=" in out
        assert "frames_total" in out
        assert "slo deadline_miss_rate" in out

    def test_report_on_metrics_dump_prints_slo_attainment(
        self, tmp_path, capsys
    ):
        path = self._dump(tmp_path)
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "metrics dump" in out
        assert "slo deadline_miss_rate" in out
        assert "worst burn" in out

    def test_diff_identical_runs_exits_zero(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.jsonl")
        b = self._dump(tmp_path, "b.jsonl")
        capsys.readouterr()
        assert main(["report", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_diff_flags_injected_regression(self, tmp_path, capsys):
        import json

        a = self._dump(tmp_path, "a.jsonl")
        b = tmp_path / "b.jsonl"
        # Inject a regression: halve the final frames_total sample.
        lines = []
        for line in a.read_text().splitlines():
            record = json.loads(line)
            if (record.get("kind") == "series"
                    and record["name"] == "frames_total"):
                record["samples"] = [
                    [t, v * 0.5] for t, v in record["samples"]
                ]
            lines.append(json.dumps(record))
        b.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", "--diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "frames_total" in out and "FAIL" in out

    def test_diff_parse_error_exits_two(self, tmp_path, capsys):
        a = self._dump(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["report", "--diff", str(a), str(bad)]) == 2
        assert "cannot read metrics dump" in capsys.readouterr().err
        assert main(["report", "--diff", str(a),
                     str(tmp_path / "missing.jsonl")]) == 2

    def test_report_without_arguments_is_usage_error(self, capsys):
        assert main(["report"]) == 2
        assert "--diff" in capsys.readouterr().err


class TestSpeculationCli:
    def test_predict_and_sync_print_summaries(self, capsys):
        assert main(["run", "coterie", "pool", "2", "--duration", "2",
                     "--predict", "--sync-check"]) == 0
        out = capsys.readouterr().out
        assert "speculation" in out
        assert "pose forecasts" in out
        assert "sync check" in out
        assert "desync alarms" in out

    def test_predict_requires_coterie(self, capsys):
        assert main(["run", "mobile", "pool", "1", "--duration", "2",
                     "--predict"]) == 2
        assert "--predict/--sync-check require" in capsys.readouterr().err
        assert main(["run", "thin_client", "pool", "1", "--duration", "2",
                     "--sync-check"]) == 2
        assert "coterie" in capsys.readouterr().err

    def test_predict_horizon_requires_predict(self, capsys):
        assert main(["run", "coterie", "pool", "1", "--duration", "2",
                     "--predict-horizon", "4"]) == 2
        assert "requires --predict" in capsys.readouterr().err

    def test_bad_predict_horizon_is_an_error(self, capsys):
        assert main(["run", "coterie", "pool", "1", "--duration", "2",
                     "--predict", "--predict-horizon", "0"]) == 2
        assert "invalid --predict-horizon" in capsys.readouterr().err

    def test_clean_run_omits_speculation(self, capsys):
        assert main(["run", "coterie", "pool", "1", "--duration", "2"]) == 0
        out = capsys.readouterr().out
        assert "speculation" not in out
        assert "sync check" not in out

    def test_desync_fault_raises_alarm(self, capsys):
        assert main(["run", "coterie", "pool", "2", "--duration", "2",
                     "--seed", "1", "--predict", "--sync-check",
                     "--faults", "desync@800:0"]) == 0
        out = capsys.readouterr().out
        assert "desync alarms   : 1" in out


class TestVerifyDeterminism:
    def test_clean_run_verifies(self, capsys):
        assert main(["run", "coterie", "pool", "2", "--duration", "2",
                     "--verify-determinism"]) == 0
        out = capsys.readouterr().out
        assert "determinism check" in out
        assert "bit-identical" in out

    def test_speculative_faulted_run_verifies(self, capsys):
        assert main(["run", "coterie", "pool", "2", "--duration", "2",
                     "--seed", "1", "--predict", "--sync-check",
                     "--faults", "speccorrupt@200-900,desync@500:0",
                     "--verify-determinism"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out

    def test_verify_runs_the_config_the_flags_describe(self, tmp_path,
                                                       monkeypatch, capsys):
        """Both verify runs use the plain run's config, observers stripped."""
        import dataclasses

        import repro.cli as cli

        real_run, configs = cli.run_system, []

        def capturing(system, game, players, config):
            configs.append(config)
            return real_run(system, game, players, config)

        monkeypatch.setattr(cli, "run_system", capturing)
        argv = ["run", "coterie", "pool", "2", "--duration", "0.5",
                "--faults", "dip@100-300:0.05", "--churn", "join@200",
                "--abr", "--predict", "--sync-check", "--wifi-mbps", "300"]
        assert main([*argv, "--metrics", str(tmp_path / "m.jsonl")]) == 0
        assert main([*argv, "--verify-determinism"]) == 0
        capsys.readouterr()
        plain, first, second = configs
        assert plain.metrics is not None
        assert plain.wifi_mbps == 300.0 and plain.adapt is not None
        stripped = dataclasses.replace(plain, tracer=None, metrics=None)
        assert first == stripped and second == stripped


class TestReportHardening:
    def test_empty_event_log_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "is empty" in err

    def test_blank_lines_only_exits_two(self, tmp_path, capsys):
        blank = tmp_path / "blank.jsonl"
        blank.write_text("\n\n   \n")
        assert main(["report", str(blank)]) == 2
        assert "is empty" in capsys.readouterr().err

    def test_metrics_dump_without_series_exits_two(self, tmp_path, capsys):
        import json as _json

        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text(
            _json.dumps({"v": 1, "kind": "meta", "system": "coterie"}) + "\n"
        )
        assert main(["report", str(truncated)]) == 2
        assert "no series records" in capsys.readouterr().err

    def test_event_log_without_frame_spans_exits_two(self, tmp_path, capsys):
        import json as _json

        spanless = tmp_path / "spanless.jsonl"
        spanless.write_text(
            _json.dumps({
                "v": 1, "kind": "span", "name": "warmup", "player": 0,
                "lane": "net", "t0_ms": 0.0, "dur_ms": 1.0,
            }) + "\n"
        )
        assert main(["report", str(spanless)]) == 2
        assert "no frame spans" in capsys.readouterr().err

    def test_truncated_json_line_exits_two(self, tmp_path, capsys):
        clipped = tmp_path / "clipped.jsonl"
        clipped.write_text('{"v": 1, "kind": "span", "na\n')
        assert main(["report", str(clipped)]) == 2
        assert "not JSON" in capsys.readouterr().err

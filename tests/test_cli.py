"""Tests for the command-line interface."""

import dataclasses
import json
import os
from types import SimpleNamespace

import pytest

from repro import cli
from repro.cli import _finite_float, _first_divergence, build_parser, main
from repro.codec import FrameCodec
from repro.core.preprocess import calibrate_size_model
from repro.systems import SessionConfig, prepare_artifacts
from repro.world import load_game

#: Every float-typed flag, by subcommand, and a valid command line to add it to.
_FLOAT_FLAGS = [
    *(("run", flag) for flag in ("--duration", "--wifi-mbps", "--loss")),
    *(("fleet", flag) for flag in (
        "--rate", "--duration", "--max-wait-ms", "--retry-ms", "--patience-ms",
        "--session-duration", "--render-ms", "--deadline-ms", "--fleet-mbps",
    )),
]
_COMMAND_ARGV = {"run": ["run", "coterie", "pool", "2"], "fleet": ["fleet"]}


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
        ["preprocess", "pool", "--cache-dir", "panoramas"],
    ], ids=["run-kernels", "preprocess-kernels", "preprocess-workers",
            "preprocess-cache-dir"])
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
        # The size lines are the far-BE calibration at seed + 1 and the
        # whole-BE one at seed + 2 (the default seed is 3).
        world = load_game("pool")
        config = SessionConfig()
        codec = FrameCodec(crf=config.codec_crf)
        cutoff_map = prepare_artifacts(world, config, seed=3).cutoff_map
        far = calibrate_size_model(world, config.render_config, codec, cutoff_map, seed=4)
        whole = calibrate_size_model(world, config.render_config, codec, None, kind="whole", seed=5)
        assert f"  far-BE frame     : ~{far.mean_bytes / 1000:.0f} KB\n" in out
        assert f"  whole-BE frame   : ~{whole.mean_bytes / 1000:.0f} KB\n" in out

    def test_run_with_loss_prints_resilience(self, capsys):
        assert main(["run", "multi_furion", "pool", "1",
                     "--duration", "2", "--loss", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "resilience" in out

    def test_run_with_faults(self, capsys):
        assert main(["run", "multi_furion", "pool", "1", "--duration", "2",
                     "--faults", "stall@0-500:10"]) == 0
        assert "resilience" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["thin_client", "pool", "2", "--wifi-mbps", "0.01", "--duration", "1"],
        ["coterie", "pool", "2", "--loss", "0.9", "--duration", "2"],
    ], ids=["slow-link", "lossy-link"])
    def test_fixed_roster_run_where_nobody_displays_exits_cleanly(self, argv, capsys):
        assert main(["run", *argv]) == 0
        assert "no player displayed a frame" in capsys.readouterr().out

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

    def test_bad_churn_argument_names_the_entry(self, capsys):
        assert main(["run", "coterie", "pool", "2",
                     "--churn", "leave@100:-1"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "churn spec entry 1 ('leave@100:-1')" in line
        assert "slot must be non-negative" in line

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

    def test_fault_player_outside_session_exits_2_before_running(self, capsys,
                                                                  monkeypatch):
        def reached(*_args, **_kwargs):
            raise AssertionError("started work on an out-of-range fault player")

        monkeypatch.setattr("repro.cli.run_system", reached)
        assert main(["run", "coterie", "racing", "2", "--duration", "0.3",
                     "--faults", "outage@1-2:99"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "invalid --faults spec: fault schedule references player 99 but "
            "the session only has slots 0..1"
        ]
        assert captured.out == ""

    def test_fault_player_of_a_joiner_is_accepted(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*_args, **_kwargs):
            raise Reached

        monkeypatch.setattr("repro.cli.run_system", reached)
        with pytest.raises(Reached):
            main(["run", "coterie", "pool", "2", "--churn", "join@100",
                  "--faults", "desync@200:2"])

    def test_churn_on_mobile_is_an_error(self, capsys):
        assert main(["run", "mobile", "pool", "1", "--duration", "2",
                     "--churn", "join@100"]) == 2
        assert "networked system" in capsys.readouterr().err

    def test_players_above_max_players_is_an_error(self, capsys):
        assert main(["run", "coterie", "pool", "4", "--duration", "2",
                     "--max-players", "2"]) == 2
        assert "exceeds --max-players" in capsys.readouterr().err

    def test_run_where_nobody_displays_exits_cleanly(self, capsys):
        """Both clients crash silently while blocked in their first fetch
        and are evicted before it lands."""
        assert main(["run", "coterie", "pool", "2", "--duration", "4",
                     "--seed", "1", "--wifi-mbps", "5",
                     "--churn", "crash@50:0,crash@50:1"]) == 0
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
        from repro.telemetry import validate_chrome_trace

        trace = tmp_path / "trace.json"
        assert main(["run", "coterie", "pool", "2", "--duration", "2",
                     "--faults", "dip@400-1100:0.05",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"-> {trace}" in out and f"repro report {trace}" in out
        loaded = json.loads(trace.read_text())
        validate_chrome_trace(loaded)
        assert sum(ev.get("ph") == "X" for ev in loaded) > 10

    def test_report_from_events(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["run", "coterie", "pool", "1", "--duration", "2",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "frame-budget attribution" in out
        assert "stage" in out and "p95 ms" in out

    def test_events_flag_is_gone(self, tmp_path, capsys):
        """The trace is the one span file; there is no second format."""
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "mobile", "pool", "1", "--events",
                  str(tmp_path / "events.jsonl")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --events" in capsys.readouterr().err

    def test_report_missing_file_is_an_error(self, capsys):
        assert main(["report", "/nonexistent/trace.json"]) == 2
        assert "cannot read /nonexistent/trace.json" in capsys.readouterr().err

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
        ([*_RUN, "--trace", os.devnull], "--metrics"),
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

    @pytest.mark.parametrize("argv, field", [
        (["run", "coterie", "pool", "2", "--duration", "0.001"], "duration_s"),
        (["fleet", "--session-duration", "0.001", "--duration", "3"], "session_duration_s"),
    ], ids=["run", "fleet"])
    def test_duration_under_one_frame_rejected(self, argv, field, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"invalid {argv[0]} configuration: {field} must be at least one frame "
            "(1/60 s), got 0.001"
        ]
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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command, flag", _FLOAT_FLAGS)
    def test_non_finite_float_is_a_usage_error(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*_COMMAND_ARGV[command], flag, value])
        assert exit_info.value.code == 2
        (line,) = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert line.endswith(f"argument {flag}: must be finite, got {value!r}")

    def test_every_float_flag_is_finite_checked(self):
        """Each float flag is ``_finite_float``-typed and in ``_FLOAT_FLAGS``."""
        commands = build_parser()._subparsers._group_actions[0].choices
        actions = [(name, action) for name, sub in commands.items() for action in sub._actions]
        assert not [action.dest for _, action in actions if action.type is float]
        typed = [(name, action.option_strings[0]) for name, action in actions
                 if action.type is _finite_float]
        assert sorted(typed) == sorted(_FLOAT_FLAGS)


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

    def test_report_prints_only_the_slo_records_a_dump_holds(
        self, tmp_path, capsys
    ):
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({
            "v": 1, "kind": "series", "name": "frames_total",
            "type": "counter", "samples": [[0.0, 1.0], [500.0, 30.0]],
        }) + "\n")
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "series          : 1" in out
        assert "slo" not in out

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
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text(
            json.dumps({"v": 1, "kind": "meta", "system": "coterie"}) + "\n"
        )
        assert main(["report", str(truncated)]) == 2
        assert "no series records" in capsys.readouterr().err

    def test_event_log_without_frame_spans_exits_two(self, tmp_path, capsys):
        from repro.telemetry import SpanTracer, write_chrome_trace

        tracer = SpanTracer()
        tracer.complete("warmup", 0, "net", 0.0, 1.0)
        spanless = tmp_path / "spanless.json"
        write_chrome_trace(spanless, tracer.records)
        assert main(["report", str(spanless)]) == 2
        assert "no frame spans" in capsys.readouterr().err

    _SPAN = '{"v":1,"kind":"span","name":"frame","lane":"l","t0_ms":0,"dur_ms":1,'
    _SLO = '{"v":1,"kind":"slo","name":"x","evaluated":1,"compliant":1,"alerts":[],"worst":[],'

    # ``report`` reads a file that starts with '[' as a trace (errors
    # located by event), anything else as a metrics dump (by line).
    @pytest.mark.parametrize("record, report_says, diff_says", [
        ('{"v":1,"kind":"series"}', ":1: series record lacks field 'name'",
         ":1: series record lacks field 'name'"),
        ('{"v":1,"kind":"series","name":"x"}',
         ":1: series record lacks field 'samples'",
         ":1: series record lacks field 'samples'"),
        ("[1,2]", ": event 0: a JSON number, not a JSON object",
         ":1: record is a JSON array, not a JSON object"),
        (_SPAN + '"player":0,"args":5}', ":1: unknown metrics record kind 'span'",
         ":1: unknown metrics record kind 'span'"),
        (_SPAN + '"player":"a"}', ":1: unknown metrics record kind 'span'",
         ":1: unknown metrics record kind 'span'"),
        ('{"v":1,"kind":"slo","name":"x"}', ":1: slo record lacks field 'attainment'",
         ":1: slo record lacks field 'attainment'"),
        (_SLO + '"attainment":"x"}',
         ":1: slo record field 'attainment' must be a number or null (found a JSON string)",
         ":1: slo record field 'attainment' must be a number or null (found a JSON string)"),
        ('{"v":1,"kind":"histogram","name":"h","le":[5],"counts":"x","sum":0,"count":0}',
         ":1: histogram record field 'counts' must be a list of numbers (found a JSON string)",
         ":1: histogram record field 'counts' must be a list of numbers (found a JSON string)"),
    ], ids=["series-no-name", "series-no-samples", "array", "args-number", "player-text",
            "slo-no-attainment", "slo-text-attainment", "histogram-text-counts"])
    def test_bad_record_shape_is_one_located_line(
        self, record, report_says, diff_says, tmp_path, capsys
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(record + "\n")
        for argv, says in ((["report", str(bad)], report_says),
                           (["report", "--diff", str(bad), str(bad)], diff_says)):
            assert main(argv) == 2
            captured = capsys.readouterr()
            (line,) = captured.err.splitlines()
            assert f"{bad}{says}" in line
            assert captured.out == ""

    def test_large_array_is_named_not_echoed(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text(json.dumps(list(range(10_000))) + "\n")
        for argv in (["report", str(big)], ["report", "--diff", str(big), str(big)]):
            assert main(argv) == 2
            (line,) = capsys.readouterr().err.splitlines()
            assert "not a JSON object" in line and len(line) < 200

    def test_truncated_json_line_exits_two(self, tmp_path, capsys):
        clipped = tmp_path / "clipped.json"
        clipped.write_text('[{"ph": "X", "name": "fra\n')
        assert main(["report", str(clipped)]) == 2
        assert "not JSON" in capsys.readouterr().err


@dataclasses.dataclass(frozen=True)
class _Stats:
    frames: int = 0
    fps: float = 60.0


class TestDivergenceMessages:
    """The two determinism checks name the first field that differs."""

    @staticmethod
    def _run(stats):
        player = SimpleNamespace(player_id=1, metrics=stats, records=[], fetches=0)
        return SimpleNamespace(players=[player], be_mbps=1.0, fi_kbps=1.0,
                               membership=None)

    def test_run_names_player_and_metrics_field(self):
        a, b = self._run(_Stats(3, 60.0)), self._run(_Stats(3, 59.5))
        assert _first_divergence(a, b) == "player 1 metrics.fps: 60.0 vs 59.5"
        assert _first_divergence(a, a) is None
        nan = _Stats(3, float("nan"))
        assert _first_divergence(self._run(nan), self._run(nan)) is None

    def test_fleet_names_summary_field(self, monkeypatch, capsys):
        runs = iter([_Stats(4), _Stats(5)])
        monkeypatch.setattr(cli, "run_fleet", lambda config: SimpleNamespace(
            summary=next(runs), sessions=[]))
        assert cli._verify_fleet_determinism(None) == 1
        assert capsys.readouterr().err == (
            "  run 1 vs run 2 DIVERGED: summary.frames: 4 vs 5\n"
        )

"""End-to-end fleet runs: determinism, bit-identity, CLI contract."""

import pytest

from repro.cli import _first_divergence, main
from repro.fleet import (
    ArrivalTrace,
    FleetBudget,
    FleetConfig,
    LobbyConfig,
    PlayerArrival,
    run_fleet,
)
from repro.systems import SessionConfig, run_system


def small_config(**overrides):
    defaults = dict(
        workload="poisson", rate_per_s=1.0, duration_s=8.0, seed=7,
        games=("racing",), session_duration_s=4.0,
        lobby=LobbyConfig(session_size=2, min_session_size=2,
                          max_wait_ms=1000.0),
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(workload="bursty")
        with pytest.raises(ValueError):
            FleetConfig(games=())
        with pytest.raises(ValueError):
            FleetConfig(fidelity="half")
        with pytest.raises(ValueError):
            FleetConfig(system="warpdrive")

    def test_resolve_prefers_explicit_trace(self):
        trace = ArrivalTrace([PlayerArrival(0.0, "racing")])
        config = small_config(arrivals=trace)
        assert config.resolve_arrivals() is trace

    def test_unknown_game_in_trace_rejected(self):
        trace = ArrivalTrace([PlayerArrival(0.0, "tetris")])
        with pytest.raises(ValueError, match="unknown game"):
            run_fleet(small_config(arrivals=trace))


class TestDeterminism:
    def test_same_seed_bit_identical_summary(self):
        config = small_config()
        a = run_fleet(config)
        b = run_fleet(config)
        assert a.summary == b.summary
        assert a.sessions == b.sessions

    def test_different_seed_differs(self):
        a = run_fleet(small_config(seed=7))
        b = run_fleet(small_config(seed=8))
        assert a.summary != b.summary

    def test_summary_to_dict_round_trips_counts(self):
        summary = run_fleet(small_config()).summary
        d = summary.to_dict()
        assert d["sessions"]["completed"] == summary.sessions_completed
        assert d["store"]["lookups"] == summary.store_lookups
        assert d["farm"]["renders"] == summary.farm.renders


class TestSingleSessionIdentity:
    def test_one_session_fleet_matches_repro_run(self):
        # Four players at t=0 form exactly one racing session; under
        # fidelity="full" session 0 replays with the fleet seed itself,
        # so the replay must be bit-identical to the equivalent
        # standalone `repro run coterie racing 4`.
        trace = ArrivalTrace(
            [PlayerArrival(0.0, "racing") for _ in range(4)]
        )
        config = small_config(
            arrivals=trace, fidelity="full", seed=7,
            session_duration_s=4.0,
            lobby=LobbyConfig(session_size=4, min_session_size=4),
        )
        fleet = run_fleet(config)
        assert fleet.summary.sessions_completed == 1
        assert len(fleet.session_runs) == 1
        standalone = run_system(
            "coterie", "racing", 4,
            SessionConfig(duration_s=4.0, seed=7),
        )
        assert _first_divergence(fleet.session_runs[0], standalone) is None


class TestSharedVsIsolated:
    def test_dedup_reduces_renders_at_equal_demand(self):
        shared = run_fleet(small_config(shared=True))
        isolated = run_fleet(small_config(shared=False))
        # Identical arrivals and demand either way.
        assert shared.summary.store_lookups == isolated.summary.store_lookups
        assert isolated.summary.dedup_ratio == 0.0
        assert shared.summary.dedup_ratio > 0.2
        assert shared.summary.farm.renders < isolated.summary.farm.renders


class TestFleetCli:
    def test_unknown_game_exits_2(self, capsys):
        assert main(["fleet", "--games", "tetris"]) == 2
        assert "unknown game" in capsys.readouterr().err

    def test_malformed_trace_exits_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("100 racing\nnot-a-number racing\n")
        assert main(["fleet", "--arrivals", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:2" in err

    def test_empty_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# no arrivals\n")
        assert main(["fleet", "--arrivals", str(path)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_trace_with_unknown_game_exits_2(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        path.write_text("0 tetris\n")
        assert main(["fleet", "--arrivals", str(path)]) == 2
        assert "unknown game" in capsys.readouterr().err

    def test_bad_config_exits_2(self, capsys):
        code = main(["fleet", "--session-size", "2",
                     "--min-session-size", "3"])
        assert code == 2
        assert "invalid fleet configuration" in capsys.readouterr().err

    def test_smoke_run_prints_summary(self, capsys):
        code = main(["fleet", "poisson", "--rate", "1", "--duration", "6",
                     "--session-duration", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sessions/sec" in out
        assert "dedup" in out
        assert "join latency" in out

    def test_trace_replay_runs(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        path.write_text("0 racing\n0 racing\n")
        code = main(["fleet", "--arrivals", str(path),
                     "--session-duration", "3",
                     "--session-size", "2", "--min-session-size", "2"])
        assert code == 0
        assert "trace" in capsys.readouterr().out

    def test_verify_determinism_exits_0(self, capsys):
        code = main(["fleet", "poisson", "--rate", "1", "--duration", "6",
                     "--session-duration", "3", "--verify-determinism"])
        assert code == 0
        assert "bit-identical" in capsys.readouterr().out

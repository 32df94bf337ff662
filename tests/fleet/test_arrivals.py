"""Tests for seeded arrival workloads and the trace-file format."""

import pytest

from repro.fleet import (
    WORKLOADS,
    ArrivalTrace,
    PlayerArrival,
    diurnal_arrivals,
    flash_crowd_arrivals,
    generate_arrivals,
    poisson_arrivals,
)
from repro.fleet.arrivals import SURGE_PLAYERS


class TestPlayerArrival:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            PlayerArrival(t_ms=-1.0, game="racing")

    def test_rejects_nan_time(self):
        with pytest.raises(ValueError):
            PlayerArrival(t_ms=float("nan"), game="racing")

    def test_rejects_empty_game(self):
        with pytest.raises(ValueError):
            PlayerArrival(t_ms=0.0, game="")

    def test_rejects_whitespace_game(self):
        with pytest.raises(ValueError):
            PlayerArrival(t_ms=0.0, game="two words")


class TestArrivalTrace:
    def test_rejects_out_of_order(self):
        with pytest.raises(ValueError, match="out of order"):
            ArrivalTrace([
                PlayerArrival(100.0, "racing"),
                PlayerArrival(50.0, "racing"),
            ])

    def test_horizon_and_games(self):
        trace = ArrivalTrace([
            PlayerArrival(10.0, "viking"),
            PlayerArrival(20.0, "racing"),
            PlayerArrival(30.0, "viking"),
        ])
        assert trace.horizon_ms == 30.0
        assert trace.games() == ("racing", "viking")
        assert len(trace) == 3

    def test_empty_trace(self):
        trace = ArrivalTrace([])
        assert trace.horizon_ms == 0.0
        assert trace.games() == ()
        assert trace.to_text() == ""


class TestGenerators:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_same_seed_bit_identical(self, workload):
        a = generate_arrivals(workload, 2.0, 10.0, seed=11)
        b = generate_arrivals(workload, 2.0, 10.0, seed=11)
        assert a == b

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_different_seeds_differ(self, workload):
        a = generate_arrivals(workload, 2.0, 10.0, seed=11)
        b = generate_arrivals(workload, 2.0, 10.0, seed=12)
        assert a != b

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_times_within_horizon(self, workload):
        trace = generate_arrivals(workload, 3.0, 8.0, seed=5)
        assert all(0.0 <= a.t_ms <= 8000.0 for a in trace)

    def test_poisson_rate_scales_count(self):
        slow = poisson_arrivals(0.5, 60.0, seed=3)
        fast = poisson_arrivals(5.0, 60.0, seed=3)
        assert len(fast) > len(slow)

    def test_diurnal_trough_thinner_than_peak(self):
        trace = diurnal_arrivals(8.0, 60.0, seed=3)
        # One wave over the horizon: the peak sits mid-trace, the
        # troughs at the edges.  Compare arrival counts in the middle
        # third against the outer thirds.
        third = 20_000.0
        edges = sum(1 for a in trace
                    if a.t_ms < third or a.t_ms > 2 * third)
        middle = sum(1 for a in trace if third <= a.t_ms <= 2 * third)
        assert middle > edges

    def test_flash_surge_lands_in_window(self):
        trace = flash_crowd_arrivals(0.2, 20.0, seed=3)
        in_window = sum(1 for a in trace if 8_000.0 <= a.t_ms <= 10_000.0)
        assert in_window >= SURGE_PLAYERS

    def test_multi_game_assignment(self):
        trace = poisson_arrivals(5.0, 20.0, seed=4,
                                 games=("racing", "viking"))
        assert set(trace.games()) == {"racing", "viking"}

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            generate_arrivals("bursty", 1.0, 10.0, seed=1)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 10.0, seed=1)


class TestTraceFormat:
    def test_round_trip(self):
        original = poisson_arrivals(2.0, 10.0, seed=9)
        assert ArrivalTrace.parse(original.to_text()) == original

    def test_comments_and_blanks_skipped(self):
        trace = ArrivalTrace.parse(
            "# header\n\n100 racing  # inline comment\n\n200 viking\n"
        )
        assert len(trace) == 2
        assert trace.arrivals[1].game == "viking"

    def test_wrong_field_count_is_line_numbered(self):
        with pytest.raises(ValueError, match=r"trace\.txt:2: expected"):
            ArrivalTrace.parse("100 racing\n200 racing extra\n",
                               source="trace.txt")

    def test_non_numeric_time_is_line_numbered(self):
        with pytest.raises(ValueError,
                           match=r"trace\.txt:3: arrival time 'soon'"):
            ArrivalTrace.parse("100 racing\n200 racing\nsoon racing\n",
                               source="trace.txt")

    def test_out_of_order_is_line_numbered(self):
        with pytest.raises(ValueError, match=r"trace\.txt:2: .*before"):
            ArrivalTrace.parse("500 racing\n100 racing\n",
                               source="trace.txt")

    def test_bad_arrival_value_is_line_numbered(self):
        with pytest.raises(ValueError, match=r"trace\.txt:1:"):
            ArrivalTrace.parse("-5 racing\n", source="trace.txt")

    def test_from_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0 racing\n1000 racing\n")
        trace = ArrivalTrace.from_file(path)
        assert len(trace) == 2

    def test_from_file_error_names_path(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nope\n")
        with pytest.raises(ValueError, match=r"bad\.txt:1"):
            ArrivalTrace.from_file(path)

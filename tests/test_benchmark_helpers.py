"""Tests for the benchmark helpers (report tables, ASCII plots, the
observer-overhead verdict arithmetic)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

from ascii_plot import ascii_cdf, ascii_series  # noqa: E402
from bench_overhead import judge_overhead  # noqa: E402
from harness import PAPER, fmt, report, table  # noqa: E402


class TestFmt:
    def test_float_formatting(self):
        assert fmt(3.14159) == "3.1"
        assert fmt(3.14159, 3) == "3.142"

    def test_none_is_dash(self):
        assert fmt(None) == "-"

    def test_int_passthrough(self):
        assert fmt(42) == "42"


class TestReport:
    def test_writes_text_and_json(self, tmp_path, monkeypatch, capsys):
        import harness

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        report("unit_test_table", ["a", "b"], [("x", 1), ("yy", 22)], notes="n")
        out = capsys.readouterr().out
        assert "unit_test_table" in out
        assert (tmp_path / "unit_test_table.txt").exists()
        assert (tmp_path / "unit_test_table.json").exists()
        text = (tmp_path / "unit_test_table.txt").read_text()
        assert "yy" in text and "22" in text and text.endswith("n\n")


    def test_table_is_the_same_text_without_io(self, tmp_path, monkeypatch,
                                               capsys):
        import harness

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        text = table("t", ["a", "b"], [("x", 1), ("yy", 22)], notes="n")
        assert capsys.readouterr().out == ""
        assert not list(tmp_path.iterdir())
        report("t", ["a", "b"], [("x", 1), ("yy", 22)], notes="n")
        assert (tmp_path / "t.txt").read_text() == text + "\n"


class TestJudgeOverhead:
    """Pure arithmetic: per-repeat walls in, verdicts out (no simulation)."""

    # Plain legs differ per repeat (machine drift); ratios are what count.
    PLAIN = [2.0, 2.2, 1.9, 2.1, 2.0]
    NULL_RATIOS = [1.04, 0.96, 1.05, 0.97, 1.03]  # median |r - 1| = 4%

    def _walls(self, traced, metered=None, supervised=None):
        def leg(ratios):
            return [p * r for p, r in zip(self.PLAIN, ratios)]

        flat = [1.0] * len(self.PLAIN)
        return {
            "plain": list(self.PLAIN),
            "null": leg(self.NULL_RATIOS),
            "traced": leg(traced),
            "metered": leg(metered or flat),
            "supervised": leg(supervised or flat),
        }

    def test_noise_floor_sets_the_gate(self):
        verdict = judge_overhead(self._walls([1.0] * 5), floor=0.05)
        assert verdict["noise"] == pytest.approx(0.04)
        assert verdict["gate"] == pytest.approx(0.08)
        quiet = dict(self._walls([1.0] * 5), null=list(self.PLAIN))
        assert judge_overhead(quiet, floor=0.05)["gate"] == 0.05

    def test_overhead_below_noise_passes_as_within_noise(self):
        walls = self._walls([1.03, 1.01, 1.09, 1.03, 0.98])
        traced = judge_overhead(walls, floor=0.05)["observers"]["traced"]
        assert traced["overhead"] == pytest.approx(0.03)
        assert traced["passed"] and traced["verdict"] == "within noise"

    def test_resolved_overhead_under_the_gate_is_measurable(self):
        walls = self._walls([1.06] * 5)
        traced = judge_overhead(walls, floor=0.05)["observers"]["traced"]
        assert traced["passed"] and traced["verdict"] == "measurable"

    def test_large_overhead_fails_under_the_same_floor(self):
        walls = self._walls([1.30, 1.28, 1.35, 1.30, 1.31])
        traced = judge_overhead(walls, floor=0.05)["observers"]["traced"]
        assert traced["overhead"] == pytest.approx(0.30)
        assert not traced["passed"] and traced["verdict"] == "over gate"

    def test_negative_median_is_noise_not_a_speed_up(self):
        walls = self._walls([0.90, 0.93, 0.95, 0.91, 0.97])
        traced = judge_overhead(walls, floor=0.05)["observers"]["traced"]
        assert traced["overhead"] == pytest.approx(-0.07)
        assert traced["passed"] and traced["verdict"] == "within noise"

    def test_repeat_order_does_not_change_the_result(self):
        walls = self._walls([1.03, 1.01, 1.09, 1.03, 0.98],
                            metered=[1.2, 1.1, 1.3, 1.25, 1.4],
                            supervised=[0.9, 1.0, 1.1, 1.0, 1.0])
        order = [3, 0, 4, 2, 1]
        shuffled = {leg: [w[i] for i in order] for leg, w in walls.items()}
        a, b = judge_overhead(walls, 0.05), judge_overhead(shuffled, 0.05)
        assert (a["noise"], a["gate"]) == (b["noise"], b["gate"])
        for name, verdict in a["observers"].items():
            other = b["observers"][name]
            assert verdict["overhead"] == other["overhead"]
            assert verdict["verdict"] == other["verdict"]
            assert sorted(verdict["ratios"]) == sorted(other["ratios"])


class TestPaperReference:
    def test_table1_covers_three_baselines(self):
        systems = {key[0] for key in PAPER["table1"]}
        assert systems == {"mobile", "thin_client", "multi_furion"}

    def test_table3_covers_all_nine_games(self):
        assert len(PAPER["table3"]) == 9

    def test_table5_covers_five_versions_four_counts(self):
        assert len(PAPER["table5"]) == 20

    def test_table10_distribution_sums_to_100(self):
        assert sum(PAPER["table10"].values()) == pytest.approx(100.0)


class TestAsciiCdf:
    def test_renders_axes_and_legend(self):
        plot = ascii_cdf({"a": [1, 2, 3]}, "metres", width=30, height=6)
        lines = plot.splitlines()
        assert lines[0].startswith(" 1.0 |")
        assert "metres" in plot
        assert "*=a" in plot

    def test_monotone_columns(self):
        plot = ascii_cdf({"s": list(range(20))}, "x", width=40, height=8)
        # Marker row index never increases left to right (CDF rises).
        rows = [line[6:] for line in plot.splitlines()[:8]]
        last_col = -1
        for row_index in range(7, -1, -1):
            cols = [i for i, c in enumerate(rows[row_index]) if c == "*"]
            if cols:
                assert min(cols) >= last_col
                last_col = min(cols)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            ascii_cdf({}, "x")
        with pytest.raises(ValueError):
            ascii_cdf({"a": []}, "x")


class TestAsciiSeries:
    def test_renders_points(self):
        plot = ascii_series(
            {"up": [(0.0, 0.0), (1.0, 1.0)]}, "x", "y", width=20, height=5
        )
        assert "*" in plot
        assert "*=up" in plot

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_series({}, "x", "y")

"""Tests for RateTrace: sampling, generators, files, dip composition.

The trace layer must replay bit-identically (seeded generators, frozen
segments), parse trace files with line-numbered errors, and compose
with the existing DipEpisode machinery exactly as documented: dips
stack by min, the trace multiplies in on top.
"""

import math

import pytest

from repro.net import ImpairmentConfig, RateTrace, TRACE_PROFILES
from repro.net.impairment import CELLULAR_FLOOR, DipEpisode, LinkImpairment


class TestSampling:
    def test_nominal_before_first_segment(self):
        trace = RateTrace(segments=((1000.0, 0.5),))
        assert trace.factor_at(0.0) == 1.0
        assert trace.factor_at(999.9) == 1.0

    def test_segment_boundaries_inclusive_on_start(self):
        trace = RateTrace(segments=((0.0, 0.8), (500.0, 0.3)))
        assert trace.factor_at(0.0) == 0.8
        assert trace.factor_at(499.9) == 0.8
        assert trace.factor_at(500.0) == 0.3

    def test_last_segment_extends_forever(self):
        trace = RateTrace(segments=((0.0, 0.8), (500.0, 0.3)))
        assert trace.factor_at(1e9) == 0.3


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one segment"):
            RateTrace(segments=())

    def test_non_increasing_starts_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RateTrace(segments=((100.0, 0.5), (100.0, 0.4)))

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RateTrace(segments=((-1.0, 0.5),))

    @pytest.mark.parametrize("factor", [0.0, -0.2, 1.5])
    def test_factor_out_of_range_rejected(self, factor):
        with pytest.raises(ValueError, match="capacity factor"):
            RateTrace(segments=((0.0, factor),))


class TestGenerators:
    def test_profiles_constant_matches_generators(self):
        assert set(TRACE_PROFILES) == {"cellular", "bufferbloat", "contention"}

    @pytest.mark.parametrize("profile", TRACE_PROFILES)
    def test_named_dispatch(self, profile):
        trace = RateTrace.named(profile, seed=3, duration_ms=5000.0)
        assert trace.segments
        assert all(0.0 < f <= 1.0 for _, f in trace.segments)

    def test_named_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown trace profile"):
            RateTrace.named("asymmetric", seed=1, duration_ms=1000.0)

    def test_cellular_seeded_bit_identical(self):
        a = RateTrace.cellular(seed=11, duration_ms=8000.0)
        b = RateTrace.cellular(seed=11, duration_ms=8000.0)
        assert a.segments == b.segments

    def test_cellular_different_seeds_differ(self):
        a = RateTrace.cellular(seed=11, duration_ms=8000.0)
        b = RateTrace.cellular(seed=12, duration_ms=8000.0)
        assert a.segments != b.segments

    def test_cellular_respects_floor(self):
        trace = RateTrace.cellular(seed=5, duration_ms=60_000.0)
        assert min(f for _, f in trace.segments) == CELLULAR_FLOOR

    def test_bufferbloat_reaches_trough_then_recovers(self):
        trace = RateTrace.bufferbloat(duration_ms=10_000.0)
        trough = min(factor for _, factor in trace.segments)
        assert trough == pytest.approx(0.15, abs=0.01)
        # Deterministic: no seed, identical every construction.
        assert trace.segments == RateTrace.bufferbloat(
            duration_ms=10_000.0
        ).segments
        # Recovery: the factor at the end is back near nominal.
        assert trace.factor_at(9_999.0) > 0.9

    def test_contention_square_wave(self):
        trace = RateTrace.contention(duration_ms=8000.0)
        # Nominal first half of each period, contended second half.
        assert trace.factor_at(100.0) == 1.0
        assert trace.factor_at(1500.0) == 0.25
        assert trace.factor_at(2100.0) == 1.0
        assert trace.factor_at(3500.0) == 0.25


class TestFromFile:
    def write(self, tmp_path, text):
        path = tmp_path / "trace.txt"
        path.write_text(text)
        return str(path)

    def test_parses_whitespace_commas_comments(self, tmp_path):
        path = self.write(tmp_path, "\n".join([
            "# capacity trace",
            "0 1.0",
            "500, 0.4  # mid dip",
            "",
            "900\t0.8",
        ]))
        trace = RateTrace.from_file(path)
        assert trace.segments == ((0.0, 1.0), (500.0, 0.4), (900.0, 0.8))
        assert trace.name == f"file:{path}"

    def test_malformed_row_names_line(self, tmp_path):
        path = self.write(tmp_path, "0 1.0\n500 0.4 extra\n")
        with pytest.raises(ValueError, match="line 2"):
            RateTrace.from_file(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = self.write(tmp_path, "0 1.0\n# fine\nfast 0.4\n")
        with pytest.raises(ValueError, match="line 3.*non-numeric"):
            RateTrace.from_file(path)

    @pytest.mark.parametrize("row", ["nan 0.5", "inf 0.5", "500 nan", "500 -inf"])
    def test_non_finite_names_line(self, tmp_path, row):
        path = self.write(tmp_path, f"0 1.0\n{row}\n")
        with pytest.raises(ValueError, match="line 2.*non-finite"):
            RateTrace.from_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "# only comments\n\n")
        with pytest.raises(ValueError, match="no segments"):
            RateTrace.from_file(path)

    def test_invalid_segments_report_path(self, tmp_path):
        path = self.write(tmp_path, "0 1.0\n0 0.5\n")
        with pytest.raises(ValueError, match="line 2: .*strictly increasing"):
            RateTrace.from_file(path)
        path = self.write(tmp_path, "0 1.0\n50 0.5\n20 0.7\n")
        with pytest.raises(ValueError, match="line 3: .*strictly increasing"):
            RateTrace.from_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read trace file"):
            RateTrace.from_file(str(tmp_path / "absent.txt"))


class TestDipComposition:
    """Dips stack by min; the rate trace multiplies in on top."""

    def impairment(self, dips=(), trace=None):
        return LinkImpairment(ImpairmentConfig(
            seed=1, dips=tuple(dips), rate_trace=trace,
        ))

    def test_trace_multiplies_with_dip(self):
        dip = DipEpisode(start_ms=100.0, end_ms=300.0, capacity_factor=0.5)
        trace = RateTrace(segments=((0.0, 0.4),))
        imp = self.impairment([dip], trace)
        # Inside the dip window: 0.5 (dip) * 0.4 (trace).
        assert imp.capacity_factor(200.0) == pytest.approx(0.2)
        # Outside the dip: trace alone.
        assert imp.capacity_factor(400.0) == pytest.approx(0.4)

    def test_overlapping_dips_stack_by_min_not_product(self):
        a = DipEpisode(start_ms=0.0, end_ms=1000.0, capacity_factor=0.5)
        b = DipEpisode(start_ms=500.0, end_ms=1500.0, capacity_factor=0.3)
        imp = self.impairment([a, b])
        assert imp.capacity_factor(700.0) == pytest.approx(0.3)  # min, not 0.15
        assert imp.capacity_factor(100.0) == pytest.approx(0.5)
        assert imp.capacity_factor(1200.0) == pytest.approx(0.3)

    def test_overlapping_dip_order_irrelevant(self):
        a = DipEpisode(start_ms=0.0, end_ms=1000.0, capacity_factor=0.5)
        b = DipEpisode(start_ms=500.0, end_ms=1500.0, capacity_factor=0.3)
        trace = RateTrace(segments=((0.0, 0.9),))
        forward = self.impairment([a, b], trace)
        reverse = self.impairment([b, a], trace)
        for t in (100.0, 600.0, 700.0, 1200.0, 1600.0):
            assert forward.capacity_factor(t) == reverse.capacity_factor(t)

    def test_factor_stays_in_unit_interval(self):
        dip = DipEpisode(start_ms=0.0, end_ms=1e6, capacity_factor=0.01)
        trace = RateTrace.cellular(seed=3, duration_ms=20_000.0)
        imp = self.impairment([dip], trace)
        for t in range(0, 20_000, 333):
            factor = imp.capacity_factor(float(t))
            assert 0.0 < factor <= 1.0
            assert not math.isnan(factor)

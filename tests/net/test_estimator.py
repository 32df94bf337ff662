"""Unit and property tests for the per-client rate/delay estimator.

The estimator underpins every adaptation decision, so its contract is
pinned three ways: arithmetic on hand-built observation streams,
hypothesis-generated convergence on steady links, and bit-identical
replay of identical observation sequences (the determinism the
(trace, seed) replay guarantee rests on).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import RateEstimator
from repro.net.estimator import EWMA_ALPHA, WARMUP_SAMPLES

MBIT = 1_000_000.0


def observe_constant(est, rate_mbps, n, size_bytes=1_000_000, start_ms=0.0,
                     spacing_ms=100.0):
    """Feed n transfers that all completed at exactly ``rate_mbps``."""
    megabits = size_bytes * 8.0 / MBIT
    duration_ms = megabits / rate_mbps * 1000.0
    t = start_ms
    for _ in range(n):
        t += spacing_ms
        est.observe(t, size_bytes, duration_ms)
    return t


class TestConfigValidation:
    def test_defaults_valid(self):
        assert 0.0 < EWMA_ALPHA <= 1.0
        assert WARMUP_SAMPLES >= 1


class TestWarmupAndFeeding:
    def test_no_estimates_before_warmup(self):
        est = RateEstimator()
        observe_constant(est, 100.0, WARMUP_SAMPLES - 1)
        assert not est.warmed_up
        assert est.rate_mbps() is None
        assert est.predict_transfer_ms(1_000_000) is None

    def test_estimates_after_warmup(self):
        est = RateEstimator()
        observe_constant(est, 100.0, WARMUP_SAMPLES)
        assert est.warmed_up
        assert est.rate_mbps() == pytest.approx(100.0)

    def test_zero_size_and_duration_ignored(self):
        est = RateEstimator()
        est.observe(10.0, 0, 5.0)
        est.observe(20.0, 1000, 0.0)
        est.observe(30.0, -5, 5.0)
        assert est.samples == 0

    def test_out_of_order_observation_raises(self):
        est = RateEstimator()
        est.observe(100.0, 1000, 5.0)
        with pytest.raises(ValueError, match="time order"):
            est.observe(99.0, 1000, 5.0)

    def test_same_timestamp_allowed(self):
        est = RateEstimator()
        est.observe(100.0, 1000, 5.0)
        est.observe(100.0, 1000, 5.0)  # two completions in one sim instant
        assert est.samples == 2


class TestEstimates:
    def test_constant_rate_recovered_exactly(self):
        est = RateEstimator()
        observe_constant(est, 80.0, 10)
        assert est.rate_mbps() == pytest.approx(80.0)

    def test_predict_scales_linearly_with_size(self):
        est = RateEstimator()
        observe_constant(est, 100.0, 5)
        one = est.predict_transfer_ms(500_000)
        two = est.predict_transfer_ms(1_000_000)
        assert two == pytest.approx(2.0 * one)

    def test_predict_matches_steady_link(self):
        # 100 Mbit/s => an 8 Mbit (1 MB) transfer takes 80 ms.
        est = RateEstimator()
        observe_constant(est, 100.0, 5)
        assert est.predict_transfer_ms(1_000_000) == pytest.approx(80.0)


class TestConvergenceProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        rate=st.floats(min_value=5.0, max_value=500.0),
        n=st.integers(min_value=8, max_value=40),
        size=st.integers(min_value=50_000, max_value=5_000_000),
    )
    def test_steady_link_converges_to_true_rate(self, rate, n, size):
        """On a steady link the EWMA must land on the true rate."""
        est = RateEstimator()
        observe_constant(est, rate, n, size_bytes=size)
        assert est.rate_mbps() == pytest.approx(rate, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        start=st.floats(min_value=100.0, max_value=400.0),
        end=st.floats(min_value=5.0, max_value=50.0),
        n=st.integers(min_value=30, max_value=80),
    )
    def test_monotone_rate_decay_converges_within_band(self, start, end, n):
        """A monotone rate trace pulls the estimate into a band of the
        final plateau: geometric decay for the first half, then the
        plateau long enough for the EWMA (alpha 0.3) to settle.
        """
        est = RateEstimator()
        t = 0.0
        half = n // 2
        for i in range(n):
            frac = min(1.0, i / max(1, half))
            rate = start * (end / start) ** frac  # monotone decreasing
            duration_ms = 8.0 / rate * 1000.0  # 1 MB transfers
            t += duration_ms
            est.observe(t, 1_000_000, duration_ms)
        assert est.rate_mbps() == pytest.approx(end, rel=0.05)
        # Forecast agrees with the plateau rate within the same band.
        predicted = est.predict_transfer_ms(1_000_000)
        assert predicted == pytest.approx(8.0 / end * 1000.0, rel=0.1)


observation_streams = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=200.0),  # inter-arrival gap
        st.integers(min_value=1, max_value=5_000_000),  # size
        st.floats(min_value=0.01, max_value=500.0),  # duration
    ),
    min_size=1,
    max_size=60,
)


class TestDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(stream=observation_streams)
    def test_identical_streams_bit_identical_estimates(self, stream):
        """Two estimators fed the same observations agree bit-for-bit at
        every step — not approximately, exactly."""
        a = RateEstimator()
        b = RateEstimator()
        t = 0.0
        for gap_ms, size, duration_ms in stream:
            t += gap_ms
            a.observe(t, size, duration_ms)
            b.observe(t, size, duration_ms)
            assert a.rate_mbps() == b.rate_mbps()
            assert a.predict_transfer_ms(size) == b.predict_transfer_ms(size)
        assert a.samples == b.samples

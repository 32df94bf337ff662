"""Tests for the seeded link-impairment model (loss, jitter, dips)."""

import pytest

from repro.net import (
    DipEpisode,
    ImpairmentConfig,
    LinkImpairment,
    WifiLink,
)
from repro.net.impairment import RTO_BACKOFF_CAP, RTO_MS
from repro.sim import Simulator


def run_transfer(link, size_bytes, tag="be"):
    results = {}

    def proc():
        duration = yield link.transfer(size_bytes, tag)
        results["duration"] = duration

    link.sim.spawn(proc())
    link.sim.run()
    return results["duration"]


class TestDipEpisode:
    def test_active_window(self):
        dip = DipEpisode(100.0, 200.0, capacity_factor=0.5)
        assert not dip.active_at(99.9)
        assert dip.active_at(100.0)
        assert dip.active_at(199.9)
        assert not dip.active_at(200.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DipEpisode(200.0, 100.0)
        with pytest.raises(ValueError):
            DipEpisode(0.0, 1.0, capacity_factor=0.0)
        with pytest.raises(ValueError):
            DipEpisode(0.0, 1.0, capacity_factor=1.5)
        with pytest.raises(ValueError):
            DipEpisode(0.0, 1.0, loss_rate=1.0)


class TestImpairmentConfig:
    def test_bursty_preset(self):
        config = ImpairmentConfig.bursty(0.1, seed=5)
        assert config.loss_rate == 0.1
        assert config.jitter_median_ms > 0
        assert ImpairmentConfig.bursty(0.0) == ImpairmentConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            ImpairmentConfig(loss_rate=1.0)
        with pytest.raises(ValueError):
            ImpairmentConfig(jitter_median_ms=-1.0)


class TestLinkImpairment:
    def test_identity_samples_change_nothing(self):
        model = LinkImpairment(ImpairmentConfig())
        for t in (0.0, 100.0, 5000.0):
            drawn = model.sample(t, 500_000)
            assert drawn.work_scale == 1.0
            assert drawn.extra_latency_ms == 0.0
            assert drawn.lost_segments == 0

    def test_observed_loss_tracks_target(self):
        """Gilbert-Elliott stationary loss ~ the configured rate."""
        target = 0.1
        model = LinkImpairment(ImpairmentConfig(loss_rate=target, seed=3))
        for _ in range(200):
            model.sample(0.0, 100_000)  # ~70 segments each
        stats = model.stats
        assert stats.lost_segments / stats.segments == pytest.approx(target, rel=0.25)

    def test_losses_are_bursty(self):
        """Mean burst length well above 1 segment (i.i.d. would be ~1)."""
        model = LinkImpairment(
            ImpairmentConfig(loss_rate=0.1, seed=3)
        )
        for _ in range(200):
            model.sample(0.0, 100_000)
        assert model.stats.lost_segments / model.stats.bursts > 2.0

    def test_work_scale_reflects_retransmits(self):
        model = LinkImpairment(ImpairmentConfig(loss_rate=0.2, seed=1))
        drawn = model.sample(0.0, 1_000_000)
        segments = model.stats.segments
        expected = (segments + drawn.lost_segments) / segments
        assert drawn.work_scale == pytest.approx(expected)
        assert drawn.work_scale >= 1.0

    def test_burst_penalty_escalates(self):
        """Back-to-back bursts pay doubled RTOs, capped."""
        model = LinkImpairment(ImpairmentConfig(loss_rate=0.3, seed=7))
        drawn = model.sample(0.0, 2_000_000)
        assert drawn.bursts > RTO_BACKOFF_CAP + 1
        # RTO, 2 RTO, 4 RTO, ... until the cap; every later burst pays
        # the capped timeout.  No jitter is configured.
        expected = sum(
            RTO_MS * 2.0 ** min(i, RTO_BACKOFF_CAP) for i in range(drawn.bursts)
        )
        assert drawn.extra_latency_ms == pytest.approx(expected)

    def test_dip_scales_work(self):
        config = ImpairmentConfig(
            dips=(DipEpisode(100.0, 200.0, capacity_factor=0.25),)
        )
        model = LinkImpairment(config)
        assert model.capacity_factor(50.0) == 1.0
        assert model.capacity_factor(150.0) == 0.25
        inside = model.sample(150.0, 100_000)
        outside = model.sample(50.0, 100_000)
        assert inside.work_scale == pytest.approx(4.0)
        assert outside.work_scale == pytest.approx(1.0)

    def test_overlapping_dips_take_min_capacity(self):
        config = ImpairmentConfig(dips=(
            DipEpisode(0.0, 300.0, capacity_factor=0.5),
            DipEpisode(100.0, 200.0, capacity_factor=0.1),
        ))
        model = LinkImpairment(config)
        assert model.capacity_factor(150.0) == 0.1
        assert model.capacity_factor(250.0) == 0.5

    def test_dip_loss_overrides_base(self):
        config = ImpairmentConfig(
            loss_rate=0.01, seed=2,
            dips=(DipEpisode(0.0, 100.0, capacity_factor=1.0, loss_rate=0.4),),
        )
        model = LinkImpairment(config)
        for _ in range(50):
            model.sample(50.0, 100_000)
        assert model.stats.lost_segments / model.stats.segments > 0.2

    def test_same_seed_same_draws(self):
        a = LinkImpairment(ImpairmentConfig.bursty(0.1, seed=11))
        b = LinkImpairment(ImpairmentConfig.bursty(0.1, seed=11))
        draws_a = [a.sample(t * 10.0, 250_000) for t in range(40)]
        draws_b = [b.sample(t * 10.0, 250_000) for t in range(40)]
        assert draws_a == draws_b


class TestImpairedWifiLink:
    def test_zero_loss_impairment_matches_clean(self):
        clean = WifiLink(Simulator(), capacity_mbps=500.0)
        impaired = WifiLink(
            Simulator(), capacity_mbps=500.0,
            impairment=LinkImpairment(ImpairmentConfig()),
        )
        assert run_transfer(clean, 550_000) == run_transfer(impaired, 550_000)

    def test_loss_slows_transfers(self):
        clean = WifiLink(Simulator(), capacity_mbps=500.0)
        impaired = WifiLink(
            Simulator(), capacity_mbps=500.0,
            impairment=LinkImpairment(ImpairmentConfig.bursty(0.2, seed=4)),
        )
        assert run_transfer(impaired, 550_000) > run_transfer(clean, 550_000)

    def test_abort_pending_transfer(self):
        """Aborting an in-flight transfer frees the medium."""
        sim = Simulator()
        link = WifiLink(
            sim, capacity_mbps=1.0, overhead_ms=0.0,
            impairment=LinkImpairment(ImpairmentConfig.bursty(0.1, seed=1)),
        )
        ev = link.transfer(1_000_000)  # ~8 s at 1 Mbps
        sim.run_until(10.0)
        assert link.abort(ev) is True
        assert not ev.triggered
        sim.run_until(60_000.0)
        assert not ev.triggered  # never fires after an abort
        assert link._medium.active_flows == 0

    def test_abort_completed_transfer_returns_false(self):
        sim = Simulator()
        link = WifiLink(sim, capacity_mbps=500.0)
        ev = link.transfer(1_000)
        sim.run()
        assert ev.triggered
        assert link.abort(ev) is False

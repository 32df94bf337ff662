"""Metered-run pins: bit-identity, instrumentation coverage, SLO firing.

The metrics pipeline's core promise mirrors the tracer's (DESIGN.md
§12): metering is purely observational — it never schedules events,
touches RNG, or perturbs the sim — so a metered run must produce
bit-identical results to an unmetered one, and replaying the same
config must fire the same burn-rate alerts at the same sim times.
"""

import pytest

from repro.faults import FaultSchedule
from repro.net import ImpairmentConfig, RateTrace
from repro.systems import SessionConfig, prepare_artifacts, run_coterie
from repro.telemetry import MetricsHub, SloEngine
from repro.world import load_game

DURATION_S = 2.0
SEED = 11


@pytest.fixture(scope="module")
def game():
    world = load_game("racing")
    artifacts = prepare_artifacts(
        world, SessionConfig(duration_s=DURATION_S, seed=SEED)
    )
    return world, artifacts


def _run(game, hub, cellular=False):
    world, artifacts = game
    impairment = None
    if cellular:
        impairment = ImpairmentConfig(rate_trace=RateTrace.named(
            "cellular", seed=SEED, duration_ms=DURATION_S * 1000.0
        ))
    config = SessionConfig(
        duration_s=DURATION_S, seed=SEED, metrics=hub,
        impairment=impairment,
        faults=FaultSchedule.parse("dip@500-1500:0.05"),
    )
    return run_coterie(world, 2, config, artifacts)


def _key(result):
    return (
        [p.metrics for p in result.players],
        result.be_mbps,
        result.fi_kbps,
    )


def _alert_signature(hub):
    return tuple(
        (a.slo, a.t_ms, a.short_ms, a.long_ms)
        for r in SloEngine().evaluate(hub.series)
        for a in r.alerts
    )


class TestMeteredRunDeterminism:
    def test_metered_run_bit_identical_to_unmetered(self, game):
        unmetered = _run(game, None)
        hub = MetricsHub()
        metered = _run(game, hub)
        assert hub.samples_taken > 0
        assert _key(unmetered) == _key(metered)

    def test_slo_alerts_fire_deterministically_under_cellular(self, game):
        hub_a = MetricsHub()
        _run(game, hub_a, cellular=True)
        hub_b = MetricsHub()
        _run(game, hub_b, cellular=True)
        sig_a = _alert_signature(hub_a)
        assert len(sig_a) >= 1  # the dip must trip the miss-rate SLO
        assert sig_a == _alert_signature(hub_b)
        assert any(slo == "deadline_miss_rate" for slo, *_ in sig_a)


class TestInstrumentationCoverage:
    @pytest.fixture(scope="class")
    def hub(self, game):
        hub = MetricsHub()
        _run(game, hub)
        return hub

    def test_samples_land_on_period_boundaries(self, hub):
        period = hub.sample_period_ms
        for name, ring in hub.series.items():
            for t, _ in ring:
                assert t % period == pytest.approx(0.0), (name, t)

    def test_a_coterie_run_exposes_at_least_twenty_series(self, hub):
        assert len(hub.series) >= 20

    def test_sim_and_link_series_present(self, hub):
        assert "sim_queue_depth" in hub.series
        assert "link_utilization" in hub.series
        assert 'link_bytes_total{tag="be"}' in hub.series
        assert 'link_bytes_total{tag="fi"}' in hub.series
        assert "pun_players" in hub.series

    def test_frame_loop_series_present_per_player(self, hub):
        for player in ("0", "1"):
            assert f'frame_interval_ms{{player="{player}"}}' in hub.series
            assert f'stage_render_ms{{player="{player}"}}' in hub.series
            assert f'deadline_margin_ms{{player="{player}"}}' in hub.series
        assert "frames_total" in hub.series

    def test_cache_and_store_series_present(self, hub):
        assert 'cache_hit_ratio{player="0"}' in hub.series
        assert 'cache_occupancy_bytes{player="0"}' in hub.series
        assert "store_renders_total" in hub.series

    def test_frames_counter_matches_collector(self, game):
        hub = MetricsHub()
        result = _run(game, hub)
        expected = sum(p.metrics.frames for p in result.players)
        final = hub.series["frames_total"][-1][1]
        # The ring's last boundary lands at/before the horizon; every
        # frame record metered before it is counted.
        assert final <= expected
        assert final > 0

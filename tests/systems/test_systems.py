"""Tests for the four end-to-end systems.

Short runs on the smallest game (pool) for speed, plus paper-shape checks
on viking where the claim is central.
"""

import dataclasses

import pytest

from repro.codec import FrameCodec
from repro.core import preprocess_game
from repro.render import GTX1080TI, RenderCostModel
from repro.systems import (
    SYSTEMS,
    SessionConfig,
    prepare_artifacts,
    run_coterie,
    run_system,
)
from repro.world import load_game

FAST = SessionConfig(duration_s=4.0, seed=1)


@pytest.fixture(scope="module")
def viking_runs():
    """One short run per system on viking, shared across tests."""
    runs = {}
    for system in ("mobile", "thin_client", "multi_furion", "coterie"):
        runs[system] = run_system(system, "viking", 2, FAST)
    return runs


class TestRunSystemBasics:
    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            run_system("cloud", "pool", 1, FAST)

    def test_player_count_validated(self):
        with pytest.raises(ValueError):
            run_system("mobile", "pool", 0, FAST)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(duration_s=0)
        with pytest.raises(ValueError):
            SessionConfig(wifi_mbps=0)

    def test_result_structure(self, viking_runs):
        result = viking_runs["coterie"]
        assert result.system == "coterie"
        assert result.game == "viking"
        assert result.n_players == 2
        assert len(result.players) == 2
        assert result.duration_s == FAST.duration_s
        for player in result.players:
            assert player.metrics.frames > 50

    def test_deterministic(self):
        a = run_system("mobile", "pool", 1, SessionConfig(duration_s=2, seed=9))
        b = run_system("mobile", "pool", 1, SessionConfig(duration_s=2, seed=9))
        assert a.mean_fps == b.mean_fps
        assert a.mean_inter_frame_ms == b.mean_inter_frame_ms


class TestPaperShapes:
    """The qualitative relationships Tables 1/7 and Fig. 11 establish."""

    def test_mobile_well_below_60fps(self, viking_runs):
        assert viking_runs["mobile"].mean_fps < 40.0

    def test_mobile_uses_no_network(self, viking_runs):
        assert viking_runs["mobile"].be_mbps == 0.0

    def test_thin_client_slowest_latency(self, viking_runs):
        tc = viking_runs["thin_client"]
        assert tc.mean_inter_frame_ms > 35.0
        assert tc.mean_responsiveness_ms > 35.0

    def test_coterie_hits_60fps_2p(self, viking_runs):
        coterie = viking_runs["coterie"]
        assert coterie.mean_fps > 55.0
        assert coterie.mean_responsiveness_ms < 16.7

    def test_coterie_beats_multi_furion_bandwidth(self, viking_runs):
        """The headline 10x+ per-player network reduction."""
        mf = viking_runs["multi_furion"]
        coterie = viking_runs["coterie"]
        assert coterie.per_player_be_mbps() < mf.per_player_be_mbps() / 5.0

    def test_coterie_cache_hit_ratio_high(self, viking_runs):
        assert viking_runs["coterie"].mean_cache_hit_ratio > 0.6

    def test_multi_furion_frame_size_near_paper(self, viking_runs):
        # Viking whole-BE frames: paper ~550 KB.
        frame_kb = viking_runs["multi_furion"].players[0].metrics.frame_kb
        assert 350 < frame_kb < 800

    def test_coterie_far_frames_smaller(self, viking_runs):
        far_kb = viking_runs["coterie"].players[0].metrics.frame_kb
        whole_kb = viking_runs["multi_furion"].players[0].metrics.frame_kb
        assert far_kb < 0.8 * whole_kb

    def test_fi_traffic_orders_of_magnitude_below_be(self, viking_runs):
        coterie = viking_runs["coterie"]
        assert coterie.fi_kbps < coterie.be_mbps * 1000.0 / 50.0

    def test_resource_envelope(self, viking_runs):
        """Table 8 / Fig. 12: moderate CPU/GPU, ~4 W, under thermal limit."""
        for player in viking_runs["coterie"].players:
            assert player.metrics.cpu_utilization < 0.45
            assert player.metrics.gpu_utilization < 0.80
            assert 2.5 < player.power_w < 5.5
            assert player.temperature_c < 52.0


class TestScalability:
    def test_multi_furion_degrades_with_players(self):
        fps = [
            run_system("multi_furion", "viking", n, FAST).mean_fps
            for n in (1, 2, 4)
        ]
        assert fps[0] > 55.0
        assert fps[2] < fps[1] < fps[0] + 1e-9
        assert fps[2] < 35.0

    def test_coterie_sustains_4_players(self):
        result = run_system("coterie", "viking", 4, FAST)
        assert result.mean_fps > 55.0

    def test_coterie_nocache_degrades_slower_than_furion(self):
        nocache = run_system("coterie_nocache", "viking", 4, FAST)
        furion = run_system("multi_furion", "viking", 4, FAST)
        # Smaller far-BE frames contend less even without the cache.
        assert nocache.mean_fps > furion.mean_fps

    def test_multi_furion_exact_cache_useless(self):
        """Table 5 Version 1: exact matching never hits."""
        result = run_system("multi_furion_cache", "viking", 2, FAST)
        assert result.mean_cache_hit_ratio is not None
        assert result.mean_cache_hit_ratio < 0.05


class TestFullFidelity:
    def test_coterie_full_renders_and_scores(self):
        config = SessionConfig(duration_s=2.0, seed=2, render_frames=True)
        world = load_game("pool")
        artifacts = prepare_artifacts(world, config)
        result = run_coterie(world, 1, config, artifacts, ssim_stride=10)
        player = result.players[0]
        assert player.metrics.mean_ssim is not None
        assert player.metrics.mean_ssim > 0.8

    def test_invalid_ssim_stride(self):
        config = SessionConfig(duration_s=1.0, seed=2)
        world = load_game("pool")
        artifacts = prepare_artifacts(world, config)
        with pytest.raises(ValueError):
            run_coterie(world, 1, config, artifacts, ssim_stride=0)


class TestArtifactCache:
    def test_prepare_artifacts_memoized(self):
        world = load_game("pool")
        a = prepare_artifacts(world, FAST)
        b = prepare_artifacts(world, FAST)
        assert a is b

    @pytest.mark.parametrize("change", [
        {"codec_crf": 40.0},
        {"device": GTX1080TI},
    ], ids=["codec_crf", "device"])
    def test_memo_keyed_on_every_preprocess_input(self, change):
        """A setting preprocessing reads gets its own artifacts, equal to a
        fresh preprocess, never the memoized default's."""
        world = load_game("pool")
        default = prepare_artifacts(world, FAST)
        config = dataclasses.replace(FAST, **change)
        changed = prepare_artifacts(world, config)
        assert changed is not default
        fresh = preprocess_game(
            world, RenderCostModel(config.device), config.render_config,
            FrameCodec(crf=config.codec_crf), seed=3,
        )
        assert changed.budget == fresh.budget
        assert changed.far_size_model == fresh.far_size_model

"""Tests for the prefetcher, pipeline law (Eq. 2), merger, and preprocessing."""

import numpy as np
import pytest

from repro.codec import FrameCodec
from repro.core import (
    FrameCache,
    PanoramaStore,
    PipelineTimings,
    Prefetcher,
    RenderBudget,
    build_cutoff_map,
    calibrate_size_model,
    compose_display,
    frame_interval_ms,
    layer_from_decoded,
    preprocess_game,
)
from repro.core.dist_thresh import DistThreshMap
from repro.core.preprocess import FrameSizeModel
from repro.geometry import Vec2
from repro.render import PIXEL2, RenderCostModel, RenderConfig, render_near_be, eye_at
from repro.trace import generate_trajectory
from repro.world import load_game

CFG = RenderConfig(width=128, height=64)
MODEL = RenderCostModel(PIXEL2)


@pytest.fixture(scope="module")
def pool_setup():
    gw = load_game("pool")
    budget = RenderBudget(fi_ms=1.0)
    cutoff_map = build_cutoff_map(gw.scene, MODEL, budget, seed=1)
    dist_map = DistThreshMap(gw.scene, CFG, cutoff_map, seed=1)
    return gw, cutoff_map, dist_map


class TestPrefetcher:
    def test_first_plan_needs_fetch(self, pool_setup):
        gw, cm, dm = pool_setup
        pf = Prefetcher(gw.scene, gw.grid, cm, dm, FrameCache())
        decision = pf.plan(gw.bounds.center, 0.0, now_ms=0.0)
        assert decision.needs_fetch
        assert pf.fetches == 1

    def test_admit_then_hit(self, pool_setup):
        gw, cm, dm = pool_setup
        pf = Prefetcher(gw.scene, gw.grid, cm, dm, FrameCache())
        p = gw.bounds.center
        d1 = pf.plan(p, 0.0, 0.0)
        pf.admit(d1, payload=None, size_bytes=1000, now_ms=0.0)
        d2 = pf.plan(p, 0.0, 16.7)
        assert not d2.needs_fetch
        assert d2.cached is not None

    def test_reuse_within_snap_distance(self, pool_setup):
        # Sub-pitch movement snaps to the same grid point: exact cache hit
        # regardless of how tight the leaf's dist_thresh is.
        gw, cm, dm = pool_setup
        pf = Prefetcher(gw.scene, gw.grid, cm, dm, FrameCache())
        p = gw.bounds.center
        d1 = pf.plan(p, 0.0, 0.0)
        pf.admit(d1, None, 1000, 0.0)
        moved = Vec2(p.x + 0.01, p.y)
        d2 = pf.plan(moved, 0.0, 16.7)
        assert not d2.needs_fetch

    def test_trajectory_hit_ratio_high(self, pool_setup):
        """Caching absorbs a large share of fetches even for the worst-case
        indoor game (the paper's indoor similarity is the lowest of the
        nine games, Fig. 1b; Table 6's 80%+ ratios are the outdoor apps,
        covered by the benchmarks)."""
        gw, cm, dm = pool_setup
        cache = FrameCache()
        pf = Prefetcher(gw.scene, gw.grid, cm, dm, cache)
        traj = generate_trajectory(gw, duration_s=10, seed=4)
        for s in traj.samples:
            decision = pf.plan(s.position, s.heading, s.t_ms)
            if decision.needs_fetch:
                pf.admit(decision, None, 1000, s.t_ms)
        assert cache.stats.hit_ratio > 0.4

    def test_lookahead_projects_target(self, pool_setup):
        gw, cm, dm = pool_setup
        pf = Prefetcher(gw.scene, gw.grid, cm, dm, FrameCache(), lookahead_m=1.0)
        p = Vec2(5.0, 6.0)
        decision = pf.plan(p, heading=0.0, now_ms=0.0)
        assert decision.position.x > p.x + 0.5

    def test_validation(self, pool_setup):
        gw, cm, dm = pool_setup
        with pytest.raises(ValueError):
            Prefetcher(gw.scene, gw.grid, cm, dm, FrameCache(), lookahead_m=-1)
        with pytest.raises(ValueError):
            Prefetcher(
                gw.scene, gw.grid, cm, dm, FrameCache(), near_significance=-0.1
            )


class TestPipeline:
    def test_eq2_max_of_tasks(self):
        t = PipelineTimings(
            render_fi_ms=2.0, render_near_be_ms=8.0, decode_ms=7.9,
            prefetch_ms=5.0, sync_ms=2.5, merge_ms=1.2, setup_ms=1.5,
        )
        # render path = 1.5 + 2 + 8 = 11.5 dominates
        assert t.split_render_ms() == pytest.approx(11.5 + 1.2)
        assert t.render_ms > max(t.decode_ms, t.prefetch_ms, t.sync_ms)

    def test_network_bound_interval(self):
        t = PipelineTimings(
            render_fi_ms=2.0, render_near_be_ms=4.0, decode_ms=7.9,
            prefetch_ms=18.5, sync_ms=2.5, merge_ms=1.2,
        )
        assert t.prefetch_ms > max(t.render_ms, t.decode_ms, t.sync_ms)
        assert t.split_render_ms() == pytest.approx(19.7)

    def test_vsync_quantization(self):
        fast = PipelineTimings(1.0, 4.0, 3.0, 2.0, 2.0, 1.0)
        assert frame_interval_ms(fast) == pytest.approx(1000.0 / 60.0)
        slow = PipelineTimings(1.0, 4.0, 3.0, 18.0, 2.0, 1.0)
        assert frame_interval_ms(slow) == pytest.approx(19.0)
        assert frame_interval_ms(slow, quantize=True) == pytest.approx(
            2 * 1000.0 / 60.0
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineTimings(-1, 0, 0, 0, 0, 0)
        good = PipelineTimings(1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            frame_interval_ms(good, target_interval_ms=0)


class TestMerger:
    def test_layer_from_decoded_full_coverage(self):
        image = np.random.default_rng(0).random((32, 64)).astype(np.float32)
        layer = layer_from_decoded(image)
        assert layer.coverage == 1.0
        with pytest.raises(ValueError):
            layer_from_decoded(np.zeros((4, 4, 3)))

    def test_compose_display_overwrites_near(self, pool_setup):
        gw, cm, _ = pool_setup
        eye = eye_at(gw.scene, gw.bounds.center, 1.7)
        cutoff = cm.cutoff_for(gw.bounds.center)
        near = render_near_be(gw.scene, eye, CFG, cutoff)
        far = np.zeros((CFG.height, CFG.width), dtype=np.float32)
        out = compose_display(far, near)
        assert out.shape == far.shape
        # Near-covered pixels take the near values; the rest stay zero.
        assert np.all(out[~near.mask] == 0.0)
        if near.mask.any():
            assert np.array_equal(out[near.mask], near.image[near.mask])


class TestPanoramaStore:
    def test_rendering_store_roundtrip(self, pool_setup):
        gw, cm, _ = pool_setup
        store = PanoramaStore(gw, CFG, FrameCodec(), cutoff_map=cm, kind="far")
        gp = gw.grid.snap(gw.bounds.center)
        frame = store.frame_for(gp)
        assert frame.encoded is not None
        assert frame.decoded is not None
        assert frame.wire_bytes > 10_000
        # Memoized: second request does not re-render.
        renders_before = store.renders
        again = store.frame_for(gp)
        assert store.renders == renders_before
        assert again is frame

    def test_emulated_store_sizes_only(self, pool_setup):
        gw, cm, _ = pool_setup
        model = FrameSizeModel(mean_bytes=200_000, std_bytes=20_000)
        store = PanoramaStore(
            gw, CFG, FrameCodec(), cutoff_map=cm, render_frames=False,
            size_model=model,
        )
        frame = store.frame_for((10, 10))
        assert frame.encoded is None
        assert frame.wire_bytes > 100_000
        assert store.renders == 0

    def test_size_model_deterministic(self):
        model = FrameSizeModel(mean_bytes=100_000, std_bytes=10_000)
        assert model.sample((3, 4)) == model.sample((3, 4))
        assert model.sample((3, 4)) != model.sample((5, 6))

    def test_validation(self, pool_setup):
        gw, cm, _ = pool_setup
        with pytest.raises(ValueError):
            PanoramaStore(gw, CFG, FrameCodec(), kind="far")  # no cutoff map
        with pytest.raises(ValueError):
            PanoramaStore(gw, CFG, FrameCodec(), cutoff_map=cm, kind="medium")
        with pytest.raises(ValueError):
            PanoramaStore(
                gw, CFG, FrameCodec(), cutoff_map=cm, render_frames=False
            )
        with pytest.raises(ValueError):
            FrameSizeModel(mean_bytes=0, std_bytes=1)


class TestPreprocessGame:
    def test_full_offline_pipeline(self, pool_setup):
        gw, _, _ = pool_setup
        artifacts = preprocess_game(gw, MODEL, CFG, FrameCodec(), seed=2,
                                    size_samples=3)
        assert artifacts.budget.near_be_budget_ms > 0
        assert artifacts.cutoff_map.stats().leaf_count >= 1
        # Far frames strip content, so they are smaller on average.
        assert (
            artifacts.far_size_model.mean_bytes
            < artifacts.whole_size_model.mean_bytes
        )

    def test_calibrate_size_model_far_smaller(self, pool_setup):
        gw, cm, _ = pool_setup
        codec = FrameCodec()
        far = calibrate_size_model(gw, CFG, codec, cm, kind="far", samples=3, seed=5)
        whole = calibrate_size_model(gw, CFG, codec, None, kind="whole", samples=3, seed=5)
        assert far.mean_bytes < whole.mean_bytes
        with pytest.raises(ValueError):
            calibrate_size_model(gw, CFG, codec, cm, samples=1)

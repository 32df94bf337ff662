"""Cross-module integration tests: the full Coterie stack in miniature.

These run the real pipeline (world -> preprocessing -> prefetch/cache ->
render/codec -> merge) on the small pool world and verify the invariants
that hold the system together.
"""

import numpy as np
import pytest

from repro.codec import FrameCodec
from repro.core import (
    FrameCache,
    PanoramaStore,
    Prefetcher,
    preprocess_game,
)
from repro.core.merger import compose_display
from repro.render import PIXEL2, RenderConfig, RenderCostModel
from repro.render.splitter import eye_at, reference_frame, render_near_be
from repro.similarity import SSIM_GOOD, ssim
from repro.trace import generate_trajectory
from repro.world import load_game

CFG = RenderConfig(width=128, height=64)
MODEL = RenderCostModel(PIXEL2)


@pytest.fixture(scope="module")
def pool():
    world = load_game("pool")
    artifacts = preprocess_game(
        world, MODEL, CFG, FrameCodec(), seed=5, size_samples=3
    )
    return world, artifacts


class TestOfflineOnlineConsistency:
    def test_cutoffs_respect_constraint_along_trace(self, pool):
        """Every visited location renders near BE within the budget."""
        world, artifacts = pool
        trajectory = generate_trajectory(world, duration_s=5, seed=3)
        budget = artifacts.budget
        for sample in trajectory.samples[::20]:
            radius = artifacts.cutoff_map.cutoff_for(sample.position)
            cost = MODEL.near_be_ms(world.scene, sample.position, radius)
            # Min-of-samples radii are conservative; tolerate the paper's
            # ~0.25 % unsampled-hotspot violations but nothing gross.
            assert cost < budget.near_be_budget_ms / budget.headroom * 1.3

    def test_cache_hit_implies_visual_quality(self, pool):
        """A frame served from the cache merges into a display frame that
        approximates the all-local reference (the dist_thresh promise)."""
        world, artifacts = pool
        store = PanoramaStore(
            world, CFG, FrameCodec(), cutoff_map=artifacts.cutoff_map
        )
        cache = FrameCache()
        prefetcher = Prefetcher(
            world.scene, world.grid, artifacts.cutoff_map,
            artifacts.dist_thresh_map, cache,
        )
        trajectory = generate_trajectory(world, duration_s=5, seed=4)
        scores = []
        for sample in trajectory.samples[::5]:
            decision = prefetcher.plan(sample.position, sample.heading, sample.t_ms)
            if decision.needs_fetch:
                stored = store.frame_for(decision.grid_point)
                cached = prefetcher.admit(
                    decision, stored, stored.wire_bytes, sample.t_ms
                )
            else:
                cached = decision.cached
            far_image = cached.payload.decoded
            eye = eye_at(world.scene, sample.position, 1.7)
            near = render_near_be(world.scene, eye, CFG, decision.cutoff_radius)
            displayed = compose_display(far_image, near)
            reference = reference_frame(world.scene, eye, CFG)
            scores.append(ssim(displayed, reference))
        # Displayed frames track the reference; codec loss and reuse drift
        # cost a little quality but stay in the paper's "good" regime.
        assert np.mean(scores) > 0.85
        assert min(scores) > 0.6

    def test_far_be_switches_are_mild(self, pool):
        """Consecutive far-BE sources along a trace differ only mildly —
        the property behind Table 10's user-study scores."""
        world, artifacts = pool
        store = PanoramaStore(
            world, CFG, FrameCodec(), cutoff_map=artifacts.cutoff_map
        )
        cache = FrameCache()
        prefetcher = Prefetcher(
            world.scene, world.grid, artifacts.cutoff_map,
            artifacts.dist_thresh_map, cache,
        )
        trajectory = generate_trajectory(world, duration_s=5, seed=6)
        shown = []
        for sample in trajectory.samples[::3]:
            decision = prefetcher.plan(sample.position, sample.heading, sample.t_ms)
            if decision.needs_fetch:
                stored = store.frame_for(decision.grid_point)
                cached = prefetcher.admit(
                    decision, stored, stored.wire_bytes, sample.t_ms
                )
            else:
                cached = decision.cached
            shown.append(cached.payload.decoded)
        switches = [
            ssim(before, after)
            for before, after in zip(shown, shown[1:])
            if after is not before
        ]
        assert switches, "expected at least one far-BE switch"
        assert np.median(switches) > 0.7

    def test_store_sizes_match_size_model(self, pool):
        """The emulated size model stays calibrated to real encodes."""
        world, artifacts = pool
        store = PanoramaStore(
            world, CFG, FrameCodec(), cutoff_map=artifacts.cutoff_map
        )
        real_sizes = []
        rng = np.random.default_rng(2)
        for _ in range(4):
            p = world.bounds.sample(rng, 1)[0]
            real_sizes.append(store.frame_for(world.grid.snap(p)).wire_bytes)
        model_mean = artifacts.far_size_model.mean_bytes
        assert 0.4 * model_mean < np.mean(real_sizes) < 2.5 * model_mean


class TestDeterminism:
    def test_preprocessing_deterministic(self):
        world = load_game("pool")
        a = preprocess_game(world, MODEL, CFG, FrameCodec(), seed=9, size_samples=3)
        b = preprocess_game(world, MODEL, CFG, FrameCodec(), seed=9, size_samples=3)
        assert a.cutoff_map.leaf_radii() == b.cutoff_map.leaf_radii()
        assert a.far_size_model == b.far_size_model

    def test_full_replay_deterministic(self, pool):
        world, artifacts = pool

        def replay():
            cache = FrameCache()
            prefetcher = Prefetcher(
                world.scene, world.grid, artifacts.cutoff_map,
                artifacts.dist_thresh_map, cache,
            )
            trajectory = generate_trajectory(world, duration_s=4, seed=8)
            for sample in trajectory.samples:
                decision = prefetcher.plan(
                    sample.position, sample.heading, sample.t_ms
                )
                if decision.needs_fetch:
                    prefetcher.admit(decision, None, 1000, sample.t_ms)
            return cache.stats.hits, cache.stats.misses

        assert replay() == replay()

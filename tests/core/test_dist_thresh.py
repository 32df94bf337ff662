"""Tests for dist_thresh derivation (§5.3's binary search)."""

import numpy as np
import pytest

from repro.codec import FrameCodec
from repro.core import (
    RenderBudget,
    build_cutoff_map,
    measure_dist_thresh,
    preprocess_game,
)
from repro.core.dist_thresh import DistThreshMap
from repro.geometry import Rect, Vec2, Vec3
from repro.render import PIXEL2, RenderCostModel, RenderConfig
from repro.world import Scene, SceneObject, load_game

CFG = RenderConfig(width=128, height=64)
MODEL = RenderCostModel(PIXEL2)


def obj(object_id, x, y, radius=2.0, triangles=50_000):
    return SceneObject(
        object_id=object_id,
        kind_name="tree",
        center=Vec3(x, y, radius),
        radius=radius,
        triangles=triangles,
        luminance=0.4,
        contrast=0.35,
        texture_seed=object_id * 31 + 3,
    )


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(8)
    objects = [
        obj(i, float(rng.uniform(10, 190)), float(rng.uniform(10, 190)))
        for i in range(60)
    ]
    return Scene(Rect(0, 0, 200, 200), objects, lambda p: 0.0)


class TestMeasureDistThresh:
    def test_positive_and_bounded(self, scene):
        rng = np.random.default_rng(1)
        thresh = measure_dist_thresh(scene, CFG, Vec2(100, 100), 10.0, rng)
        assert 0.05 <= thresh <= 32.0

    def test_larger_cutoff_larger_thresh(self, scene):
        """Fig. 5's consequence: bigger cutoffs tolerate more displacement."""
        rng_a = np.random.default_rng(2)
        rng_b = np.random.default_rng(2)
        small = measure_dist_thresh(scene, CFG, Vec2(100, 100), 3.0, rng_a)
        large = measure_dist_thresh(scene, CFG, Vec2(100, 100), 40.0, rng_b)
        assert large >= small

    def test_validation(self, scene):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            measure_dist_thresh(scene, CFG, Vec2(0, 0), -1.0, rng)


class TestDistThreshMap:
    def test_lazy_memoization(self, scene):
        cutoff_map = build_cutoff_map(scene, MODEL, RenderBudget(), seed=1)
        dist_map = DistThreshMap(scene, CFG, cutoff_map, k_samples=1, seed=1)
        assert dist_map.computed_leaves == 0
        t1 = dist_map.threshold_for(Vec2(100, 100))
        assert dist_map.computed_leaves == 1
        t2 = dist_map.threshold_for(Vec2(100.5, 100.5))
        # Same leaf (uniform-ish world): memoized, identical value.
        if cutoff_map.leaf_for(Vec2(100, 100))[0] == cutoff_map.leaf_for(Vec2(100.5, 100.5))[0]:
            assert t1 == t2
            assert dist_map.computed_leaves == 1

    def test_preprocess_game_measures_no_leaf(self):
        """Thresholds are measured on first visit, never up front."""
        world = load_game("racing", scale=0.12)
        artifacts = preprocess_game(
            world, MODEL, RenderConfig(width=48, height=24), FrameCodec(), seed=0
        )
        assert artifacts.dist_thresh_map.computed_leaves == 0

    def test_thresholds_positive(self, scene):
        cutoff_map = build_cutoff_map(scene, MODEL, RenderBudget(), seed=2)
        dist_map = DistThreshMap(scene, CFG, cutoff_map, k_samples=1, seed=2)
        for p in (Vec2(50, 50), Vec2(150, 150)):
            assert dist_map.threshold_for(p) > 0

    def test_validation(self, scene):
        cutoff_map = build_cutoff_map(scene, MODEL, RenderBudget(), seed=3)
        with pytest.raises(ValueError):
            DistThreshMap(scene, CFG, cutoff_map, k_samples=0)

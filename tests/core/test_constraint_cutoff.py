"""Tests for Constraint 1 and the adaptive cutoff scheme."""

import numpy as np
import pytest

from repro.core import (
    CutoffSchemeConfig,
    RenderBudget,
    build_cutoff_map,
    exact_max_radius,
    max_radius_satisfying,
    measure_fi_budget,
    satisfies_constraint,
)
from repro.geometry import Rect, Vec2, Vec3, batch_predicate
from repro.render import PIXEL2, RenderCostModel
from repro.world import Scene, SceneObject


def obj(object_id, x, y, triangles):
    return SceneObject(
        object_id=object_id,
        kind_name="tree",
        center=Vec3(x, y, 1.0),
        radius=1.0,
        triangles=triangles,
        luminance=0.5,
        contrast=0.3,
        texture_seed=0,
    )


def uniform_scene(spacing=5.0, triangles=120_000, extent=200.0):
    objects = []
    oid = 0
    steps = int(extent / spacing)
    for j in range(steps):
        for i in range(steps):
            objects.append(obj(oid, i * spacing + 2.0, j * spacing + 2.0, triangles))
            oid += 1
    return Scene(Rect(0, 0, extent, extent), objects, lambda p: 0.0)


MODEL = RenderCostModel(PIXEL2)


class TestRenderBudget:
    def test_paper_budget(self):
        # Eq. 1's 16.7 - 4 = 12.7 ms, with NEAR_BE_HEADROOM (0.85) kept.
        assert RenderBudget().near_be_budget_ms == pytest.approx(12.7 * 0.85)

    def test_validation(self):
        with pytest.raises(ValueError):
            RenderBudget(fi_ms=20.0)

    def test_measure_fi_budget_conservative_floor(self):
        # Measured FI well below 4 ms still budgets the paper's 4 ms.
        budget = measure_fi_budget(MODEL, fi_triangles=300_000)
        assert budget.fi_ms == pytest.approx(4.0)

    def test_measure_fi_budget_tracks_heavy_fi(self):
        # 1.5 M triangles ~ 5 ms measured -> bound rises above the floor.
        budget = measure_fi_budget(MODEL, fi_triangles=1_500_000)
        assert budget.fi_ms == pytest.approx(5.0 * 1.3)

    def test_measure_fi_budget_rejects_impossible_fi(self):
        with pytest.raises(ValueError):
            measure_fi_budget(MODEL, fi_triangles=10_000_000)


class TestSatisfiesConstraint:
    def test_small_radius_fits(self):
        scene = uniform_scene()
        assert satisfies_constraint(MODEL, scene, Vec2(100, 100), 3.0, RenderBudget())

    def test_huge_radius_violates(self):
        scene = uniform_scene(spacing=2.5, triangles=200_000)
        assert not satisfies_constraint(
            MODEL, scene, Vec2(100, 100), 80.0, RenderBudget()
        )

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            satisfies_constraint(MODEL, uniform_scene(), Vec2(0, 0), -1, RenderBudget())


class TestMaxRadius:
    def test_bisection_result_satisfies(self):
        scene = uniform_scene(spacing=3.0)
        budget = RenderBudget()
        p = Vec2(100, 100)
        radius = max_radius_satisfying(MODEL, scene, p, budget, max_radius=150.0)
        assert satisfies_constraint(MODEL, scene, p, radius, budget)
        # and slightly beyond is at least as expensive
        assert MODEL.near_be_ms(scene, p, radius + 5.0) >= MODEL.near_be_ms(
            scene, p, radius
        )

    def test_exact_matches_bisection(self):
        scene = uniform_scene(spacing=4.0)
        budget = RenderBudget()
        for point in (Vec2(50, 50), Vec2(100, 120), Vec2(30, 170)):
            exact = exact_max_radius(scene, MODEL, point, budget, max_radius=150.0)
            bisect = max_radius_satisfying(MODEL, scene, point, budget, max_radius=150.0)
            assert exact == pytest.approx(bisect, abs=0.5)

    def test_exact_satisfies_constraint(self):
        scene = uniform_scene(spacing=3.0)
        budget = RenderBudget()
        p = Vec2(77, 88)
        radius = exact_max_radius(scene, MODEL, p, budget, max_radius=150.0)
        assert satisfies_constraint(MODEL, scene, p, radius, budget)

    def test_empty_scene_returns_max(self):
        scene = Scene(Rect(0, 0, 100, 100), [], lambda p: 0.0)
        assert exact_max_radius(scene, MODEL, Vec2(50, 50), RenderBudget(), 120.0) == 120.0

    def test_denser_scene_smaller_radius(self):
        sparse = uniform_scene(spacing=8.0)
        dense = uniform_scene(spacing=2.5)
        budget = RenderBudget()
        p = Vec2(100, 100)
        r_sparse = exact_max_radius(sparse, MODEL, p, budget, 150.0)
        r_dense = exact_max_radius(dense, MODEL, p, budget, 150.0)
        assert r_dense < r_sparse

    def test_validation(self):
        scene = uniform_scene()
        with pytest.raises(ValueError):
            exact_max_radius(scene, MODEL, Vec2(0, 0), RenderBudget(), 0.0)
        with pytest.raises(ValueError):
            max_radius_satisfying(MODEL, scene, Vec2(0, 0), RenderBudget(), 0.0)


class TestCutoffScheme:
    def _two_zone_scene(self):
        """Dense west half, sparse east half -> the tree must split."""
        objects = []
        oid = 0
        for j in range(40):
            for i in range(40):
                x, y = i * 5 + 2, j * 5 + 2
                triangles = 500_000 if x < 100 else 5_000
                objects.append(obj(oid, x, y, triangles))
                oid += 1
        return Scene(Rect(0, 0, 200, 200), objects, lambda p: 0.0)

    def test_nonuniform_world_splits(self):
        scene = self._two_zone_scene()
        cutoff_map = build_cutoff_map(
            scene, MODEL, RenderBudget(), seed=1,
            config=CutoffSchemeConfig(max_depth=4),
        )
        assert cutoff_map.stats().leaf_count > 1
        # Dense side gets a smaller cutoff than the sparse side.
        dense = cutoff_map.cutoff_for(Vec2(40, 100))
        sparse = cutoff_map.cutoff_for(Vec2(170, 100))
        assert dense < sparse

    def test_uniform_world_single_leaf(self):
        scene = uniform_scene(spacing=5.0, triangles=100_000)
        cutoff_map = build_cutoff_map(scene, MODEL, RenderBudget(), seed=1)
        assert cutoff_map.stats().leaf_count <= 4

    def test_leaf_radius_is_min_of_samples(self):
        scene = self._two_zone_scene()
        cutoff_map = build_cutoff_map(scene, MODEL, RenderBudget(), seed=2)
        for leaf in cutoff_map.tree.leaves():
            assert leaf.payload.cutoff_radius == pytest.approx(
                min(leaf.payload.sampled_radii)
            )

    def test_leaf_for_consistent_with_cutoff_for(self):
        scene = self._two_zone_scene()
        cutoff_map = build_cutoff_map(scene, MODEL, RenderBudget(), seed=3)
        p = Vec2(55, 66)
        key, radius = cutoff_map.leaf_for(p)
        assert radius == cutoff_map.cutoff_for(p)
        assert Rect(*key).contains_closed(p)

    def test_deterministic_in_seed(self):
        scene = self._two_zone_scene()
        a = build_cutoff_map(scene, MODEL, RenderBudget(), seed=7)
        b = build_cutoff_map(scene, MODEL, RenderBudget(), seed=7)
        assert a.leaf_radii() == b.leaf_radii()

    def test_samples_counted(self):
        scene = uniform_scene()
        cutoff_map = build_cutoff_map(scene, MODEL, RenderBudget(), seed=1)
        config = cutoff_map.config
        assert cutoff_map.samples_evaluated >= config.k_samples
        assert cutoff_map.modeled_processing_hours() > 0

    def test_reachable_bias(self):
        scene = self._two_zone_scene()
        # Only the sparse east half is reachable: radii reflect east density.
        cutoff_map = build_cutoff_map(
            scene, MODEL, RenderBudget(), seed=4,
            reachable=batch_predicate(lambda p: p.x > 120),
            config=CutoffSchemeConfig(max_depth=2),
        )
        east = cutoff_map.cutoff_for(Vec2(170, 100))
        assert east > 10.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CutoffSchemeConfig(k_samples=0)
        with pytest.raises(ValueError):
            CutoffSchemeConfig(max_depth=-1)

    def test_all_leaf_radii_satisfy_constraint_at_samples(self):
        """The invariant the scheme exists for: using a leaf's radius at
        any of its sampled locations meets Constraint 1."""
        scene = self._two_zone_scene()
        cutoff_map = build_cutoff_map(scene, MODEL, RenderBudget(), seed=5)
        budget = RenderBudget()
        rng = np.random.default_rng(0)
        for leaf in list(cutoff_map.tree.leaves())[:10]:
            for p in leaf.region.sample(rng, 3):
                radius = leaf.payload.cutoff_radius
                # min-of-samples is conservative; allow the occasional
                # unsampled hotspot (the paper's Fig. 6 shows ~0.25%
                # violations) but never a gross violation.
                cost = MODEL.near_be_ms(scene, p, radius)
                assert cost < budget.near_be_budget_ms * 1.5

"""The batched region sampler and the pruned radius search against the
loops they replaced (kept here as references).

``sample_points`` must pick the same K locations as drawing candidates one
at a time *and* leave the generator where that loop would have left it,
because every later region of the quadtree draws from the same stream.
``exact_max_radius`` must answer as if it had sorted the whole scene, and
so must the cutoff map's solve of a whole region's samples at once.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RenderBudget, exact_max_radius
from repro.core.cutoff import _radius_solver, sample_points
from repro.geometry import Rect, Vec2, Vec3, batch_predicate
from repro.render import PIXEL2, RenderCostModel
from repro.world import Scene, SceneObject

MODEL = RenderCostModel(PIXEL2)
K = 10
REGION = Rect(10.0, -20.0, 110.0, 30.0)


def reference_sample_points(rng, region, k_samples, reachable):
    """The one-candidate-at-a-time loop ``sample_points`` replaced."""
    points = []
    if reachable is not None:
        attempts = 0
        while len(points) < k_samples and attempts < k_samples * 8:
            candidate = region.sample(rng, 1)[0]
            attempts += 1
            if reachable(candidate):
                points.append(candidate)
    while len(points) < k_samples:
        points.append(region.sample(rng, 1)[0])
    return points


def strip(fraction):
    """Reachable iff in the west ``fraction`` of REGION."""
    edge = REGION.x_min + fraction * REGION.width
    return lambda p: p.x < edge


def accepted_in_budget(seed, reachable):
    rng = np.random.default_rng(seed)
    return sum(reachable(REGION.sample(rng, 1)[0]) for _ in range(8 * K))


def assert_same_points_and_stream(seed, regions, reachable):
    ref_rng = np.random.default_rng(seed)
    new_rng = np.random.default_rng(seed)
    batched = None if reachable is None else batch_predicate(reachable)
    for region in regions:
        expected = reference_sample_points(ref_rng, region, K, reachable)
        assert sample_points(new_rng, region, K, batched) == expected
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    assert new_rng.random() == ref_rng.random()


class TestSamplePoints:
    @pytest.mark.parametrize("seed", range(8))
    def test_enough_accepted_early(self, seed):
        reachable = strip(0.5)
        assert accepted_in_budget(seed, reachable) >= K
        assert_same_points_and_stream(seed, [REGION], reachable)

    @pytest.mark.parametrize("seed", range(8))
    def test_partial_fallback_fill(self, seed):
        reachable = strip(0.05)
        assert 0 < accepted_in_budget(seed, reachable) < K
        assert_same_points_and_stream(seed, [REGION], reachable)

    @pytest.mark.parametrize("seed", range(4))
    def test_none_reachable(self, seed):
        assert_same_points_and_stream(seed, [REGION], lambda p: False)

    @pytest.mark.parametrize("seed", range(4))
    def test_no_predicate(self, seed):
        assert_same_points_and_stream(seed, [REGION], None)

    @given(seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_stream_stays_aligned_across_regions(self, seed, fraction):
        # The quadtree calls the sampler region after region on one stream.
        assert_same_points_and_stream(seed, [REGION, *REGION.quadrants()], strip(fraction))

    def test_degenerate_region(self):
        line = Rect(5.0, 0.0, 5.0, 10.0)
        assert_same_points_and_stream(3, [line], lambda p: p.y > 5.0)


def reference_exact_max_radius(scene, model, viewpoint, budget, max_radius):
    """The unpruned search: sort every object of the scene."""
    positions, triangles = scene.position_triangle_arrays()
    if len(triangles) == 0:
        return max_radius
    deltas = positions - np.array([viewpoint.x, viewpoint.y])
    distances = np.hypot(deltas[:, 0], deltas[:, 1])
    order = np.argsort(distances)
    sorted_d = distances[order]
    lod = np.maximum(
        model.device.lod_floor,
        1.0 / (1.0 + (sorted_d / model.device.lod_distance) ** 2),
    )
    cost_ms = np.cumsum(triangles[order] * lod) / model.device.triangle_throughput
    index = int(np.searchsorted(cost_ms, budget.near_be_budget_ms, side="left"))
    if index >= len(sorted_d):
        return max_radius
    supremum = float(sorted_d[index])
    if supremum >= max_radius:
        return max_radius
    return max(0.0, supremum - 1e-6)


def tree(object_id, x, y, triangles):
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


def flat_scene(objects):
    return Scene(Rect(0, 0, 400, 400), objects, lambda p: 0.0)


def random_scene(seed, count, extent, triangles_hi):
    rng = np.random.default_rng(seed)
    return flat_scene([
        tree(
            i,
            float(rng.uniform(0, extent)),
            float(rng.uniform(0, extent)),
            int(rng.integers(1, triangles_hi)),
        )
        for i in range(count)
    ])


class TestPrunedRadiusSearch:
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 250),
        triangles_hi=st.sampled_from([2_000, 200_000, 3_000_000]),
        max_radius=st.sampled_from([0.5, 8.0, 60.0, 180.0, 2_000.0]),
        vx=st.floats(-50.0, 450.0),
        vy=st.floats(-50.0, 450.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_unpruned(self, seed, count, triangles_hi, max_radius, vx, vy):
        scene = random_scene(seed, count, 400.0, triangles_hi)
        args = (scene, MODEL, Vec2(vx, vy), RenderBudget(), max_radius)
        assert exact_max_radius(*args) == reference_exact_max_radius(*args)

    def test_empty_neighbourhood(self):
        # Every object sits in one corner, farther than max_radius away.
        scene = random_scene(1, 200, 40.0, 3_000_000)
        args = (scene, MODEL, Vec2(390, 390), RenderBudget(), 50.0)
        assert reference_exact_max_radius(*args) == 50.0
        assert exact_max_radius(*args) == 50.0

    def test_everything_fits(self):
        args = (random_scene(2, 50, 400.0, 100), MODEL, Vec2(200, 200), RenderBudget(), 1_000.0)
        assert reference_exact_max_radius(*args) == 1_000.0
        assert exact_max_radius(*args) == 1_000.0

    def test_busting_object_inside_radius(self):
        scene = random_scene(3, 250, 400.0, 3_000_000)
        args = (scene, MODEL, Vec2(200, 200), RenderBudget(), 180.0)
        expected = reference_exact_max_radius(*args)
        assert 0.0 < expected < 180.0
        assert exact_max_radius(*args) == expected

    # The cutoff map solves a region's K samples together over one
    # candidate box; each answer must still be the unpruned one.

    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 250),
        triangles_hi=st.sampled_from([2_000, 200_000, 3_000_000]),
        max_radius=st.sampled_from([0.5, 8.0, 60.0, 180.0, 2_000.0]),
        x0=st.floats(-600.0, 600.0),
        y0=st.floats(-600.0, 600.0),
        width=st.floats(0.0, 1_000.0),
        height=st.floats(0.0, 1_000.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_region_equals_unpruned(
        self, seed, count, triangles_hi, max_radius, x0, y0, width, height
    ):
        scene = random_scene(seed, count, 400.0, triangles_hi)
        region = Rect(x0, y0, x0 + width, y0 + height)
        points = sample_points(np.random.default_rng(seed), region, K, None)
        assert_region_matches(scene, points, max_radius)

    def test_region_wider_than_twice_max_radius(self):
        scene = random_scene(3, 250, 400.0, 3_000_000)
        points = sample_points(np.random.default_rng(0), Rect(-50, -50, 450, 450), K, None)
        radii = assert_region_matches(scene, points, 60.0)
        assert min(radii) < 60.0

    def test_region_outside_the_scene(self):
        scene = random_scene(4, 250, 400.0, 3_000_000)
        points = sample_points(np.random.default_rng(1), Rect(-200, 100, -10, 300), K, None)
        radii = assert_region_matches(scene, points, 180.0)
        assert min(radii) < 180.0 and max(radii) == 180.0

    def test_region_with_empty_box(self):
        # Every object sits in one corner, farther than max_radius + 1 m
        # from the whole region.
        scene = random_scene(1, 200, 40.0, 3_000_000)
        points = sample_points(np.random.default_rng(2), Rect(300, 300, 390, 390), K, None)
        assert assert_region_matches(scene, points, 50.0) == [50.0] * K

    def test_region_with_colocated_objects(self):
        rng = np.random.default_rng(5)
        scene = flat_scene([
            tree(6 * c + i, x, y, int(rng.integers(100_000, 3_000_000)))
            for c, (x, y) in enumerate([(50.0, 50.0), (60.0, 52.5), (44.0, 70.0), (90.0, 90.0)])
            for i in range(6)
        ])
        points = sample_points(np.random.default_rng(6), Rect(30, 30, 110, 110), K, None)
        points.append(Vec2(50.0, 50.0))  # distance 0 to a whole cluster
        radii = assert_region_matches(scene, points, 180.0)
        assert min(radii) < 180.0

    def test_region_busting_object_at_box_edge(self):
        # The one object that busts the budget is 0.25 m inside max_radius
        # of the westmost sample, due west of it: the box must reach it.
        scene = flat_scene([tree(0, 40.25, 100.0, 10**9)])
        points = [Vec2(100.0, 100.0), Vec2(150.0, 120.0)]
        radii = assert_region_matches(scene, points, 60.0)
        assert radii == [pytest.approx(59.75), 60.0]

    def test_region_where_everything_fits(self):
        scene = random_scene(2, 50, 400.0, 100)
        points = sample_points(np.random.default_rng(3), Rect(0, 0, 400, 400), K, None)
        assert assert_region_matches(scene, points, 180.0) == [180.0] * K


def assert_region_matches(scene, points, max_radius):
    """One region solve equals the unpruned search at every point."""
    solve = _radius_solver(scene, MODEL, RenderBudget(), max_radius)
    expected = [
        reference_exact_max_radius(scene, MODEL, p, RenderBudget(), max_radius)
        for p in points
    ]
    assert solve(points) == expected
    return expected

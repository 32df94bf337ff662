"""The cutoff map's bounded radius solve against the full per-point sort.

``_radius_solver`` first sorts, per sample, only the objects within a
bound seeded from the previous call's largest radius, and re-solves out
to ``max_radius`` the samples whose budget crossing lies beyond it.  The
reference below is the search it replaced: for one point at a time, every
object within ``max_radius`` sorted by distance.  Every answer must be the
same float.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.core import RenderBudget
from repro.core.cutoff import _radius_solver
from repro.geometry import Rect, Vec2, Vec3
from repro.render import PIXEL2, RenderCostModel
from repro.world import Scene, SceneObject

MODEL = RenderCostModel(PIXEL2)
BUDGET = RenderBudget()
EXTENT = 200.0
LATTICE_M = 2.5
K = 10


def reference_radius(scene, viewpoint, max_radius):
    """The per-point full sort: every object within ``max_radius``."""
    positions, triangles = scene.position_triangle_arrays()
    device = MODEL.device
    distances = np.hypot(positions[:, 0] - viewpoint.x, positions[:, 1] - viewpoint.y)
    within = np.flatnonzero(distances <= max_radius)
    order = within[np.argsort(distances[within])]
    sorted_d = distances[order]
    lod = np.maximum(device.lod_floor, 1.0 / (1.0 + (sorted_d / device.lod_distance) ** 2))
    cost_ms = np.cumsum(triangles[order] * lod) / device.triangle_throughput
    index = int(np.searchsorted(cost_ms, BUDGET.near_be_budget_ms, side="left"))
    if index >= len(sorted_d):
        return max_radius
    supremum = float(sorted_d[index])
    if supremum >= max_radius:
        return max_radius
    return max(0.0, supremum - 1e-6)


def scene_of(positions, triangles):
    return Scene(
        Rect(0.0, 0.0, EXTENT, EXTENT),
        [
            SceneObject(
                object_id=i, kind_name="tree", center=Vec3(x, y, 1.0), radius=1.0,
                triangles=int(t), luminance=0.5, contrast=0.3, texture_seed=0,
            )
            for i, ((x, y), t) in enumerate(zip(positions, triangles))
        ],
        lambda p: 0.0,
    )


def solver(scene, max_radius):
    """``_radius_solver``'s solve, called with a list of ``Vec2``."""
    solve = _radius_solver(scene, MODEL, BUDGET, max_radius)
    return lambda points: solve(
        np.array([p.x for p in points], dtype=np.float64),
        np.array([p.y for p in points], dtype=np.float64),
    )


def assert_matches_reference(scene, groups, max_radius):
    """Solve the groups in order on one solver, as the quadtree does."""
    solve = solver(scene, max_radius)
    for points in groups:
        assert solve(points) == [reference_radius(scene, p, max_radius) for p in points]


@st.composite
def cases(draw):
    """A uniform or lattice scene and a sequence of sample groups."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = draw(st.booleans())
    count = draw(st.integers(0, 300))
    triangles_hi = draw(st.sampled_from([2_000, 200_000, 3_000_000]))

    def coordinates(n, low, high):
        if lattice:
            # Exact distance ties: objects and samples on one lattice.
            return rng.integers(int(low / LATTICE_M), int(high / LATTICE_M) + 1, n) * LATTICE_M
        return rng.uniform(low, high, n)

    positions = np.column_stack([coordinates(count, 0.0, EXTENT), coordinates(count, 0.0, EXTENT)])
    scene = scene_of(positions, rng.integers(1, triangles_hi, count))
    groups = []
    for spread in draw(st.lists(st.sampled_from([1.0, 10.0, 80.0]), min_size=1, max_size=6)):
        cx, cy = rng.uniform(-20.0, EXTENT + 20.0, 2)
        xs = coordinates(K, cx - spread, cx + spread)
        ys = coordinates(K, cy - spread, cy + spread)
        points = [Vec2(float(x), float(y)) for x, y in zip(xs, ys)]
        if count and draw(st.booleans()):
            # An object on the sample: distance zero.
            x, y = positions[int(rng.integers(count))]
            points[0] = Vec2(float(x), float(y))
        groups.append(points)
    return scene, groups


class TestBoundedSolve:
    @given(case=cases(), max_radius=st.sampled_from([5.0, 50.0, 180.0]))
    @settings(max_examples=150, deadline=None)
    def test_equals_full_sort(self, case, max_radius):
        scene, groups = case
        assert_matches_reference(scene, groups, max_radius)

    @pytest.mark.parametrize("max_radius", [5.0, 50.0, 180.0])
    def test_empty_scene(self, max_radius):
        groups = [[Vec2(10.0, 10.0)] * K, [Vec2(150.0, 20.0)], [Vec2(0.0, 0.0)] * 3]
        solve = solver(scene_of([], []), max_radius)
        for points in groups:
            assert solve(points) == [max_radius] * len(points)

    @pytest.mark.parametrize("max_radius", [5.0, 50.0, 180.0])
    def test_budget_never_busted(self, max_radius):
        rng = np.random.default_rng(7)
        scene = scene_of(rng.uniform(0.0, EXTENT, (200, 2)), np.full(200, 10))
        points = [Vec2(float(x), float(y)) for x, y in rng.uniform(0.0, EXTENT, (K, 2))]
        solve = solver(scene, max_radius)
        assert solve(points) == [max_radius] * K
        assert solve(points[:3]) == [max_radius] * 3

    def test_seed_that_misses_runs_the_second_pass(self):
        """A dense cluster seeds a small bound; the next group's only
        heavy object lies far beyond it, so the group is solved again
        out to ``max_radius``."""
        cluster = [(20.0 + 0.5 * i, 20.0) for i in range(40)]
        scene = scene_of([*cluster, (170.0, 170.0)], [400_000] * 40 + [10**9])
        first = [Vec2(20.0 + 0.5 * i, 20.5) for i in range(K)]
        second = [Vec2(120.0 + i, 120.0) for i in range(K)]
        before = perf.counter("cutoff.resolved")
        assert_matches_reference(scene, [first, second], 180.0)
        assert perf.counter("cutoff.resolved") - before == K
        solve = solver(scene, 180.0)
        assert max(solve(first)) < 10.0
        assert 0.0 < min(solve(second)) < 180.0

    def test_tied_distances_on_a_lattice(self):
        """Four objects at the same distance from every sample: the
        crossing falls inside the tie group."""
        ring = [(100.0 + dx, 100.0 + dy) for dx, dy in [(5, 0), (-5, 0), (0, 5), (0, -5)]]
        scene = scene_of(ring, [1_500_000, 2_500_000, 2_000_000, 3_000_000])
        points = [Vec2(100.0, 100.0)] * K
        assert_matches_reference(scene, [points, points], 180.0)
        solve = solver(scene, 180.0)
        assert solve(points) == [5.0 - 1e-6] * K

"""``Scene``'s array queries against the grid walk they replaced.

``Scene`` keeps its objects as cell-ordered arrays and answers every radius
query with one mask.  The contract is that each query returns what the
dict-of-lists grid walk returned — the same objects in the same order —
and that ``RenderCostModel.near_be_ms`` / ``whole_be_ms`` equal
``objects_ms`` over that list bit for bit, because the online frame loop's
digests (``tests/systems/test_loop_golden.py``) depend on every one of
those floats and on the near-set's insertion order.  ``GridWalk`` below is
the scalar reference; its ``objects_within`` body is the old method's,
verbatim.
"""

import math
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraint import measure_fi_budget
from repro.core.cutoff import build_cutoff_map
from repro.geometry import Rect, Vec2, Vec3
from repro.render import RenderCostModel
from repro.render.timing import PIXEL2
from repro.world import ALL_GAMES, Scene, SceneObject, load_game


class GridWalk:
    """The uniform-cell dict-of-lists grid and its cell-by-cell walk."""

    def __init__(self, scene):
        self.cell_size = scene.cell_size
        self._cells = defaultdict(list)
        for obj in scene.objects:
            self._cells[self._cell_of(obj.ground_position)].append(obj)

    def _cell_of(self, point):
        return (
            int(math.floor(point.x / self.cell_size)),
            int(math.floor(point.y / self.cell_size)),
        )

    def objects_within(self, center, radius):
        if radius < 0:
            raise ValueError("radius must be non-negative")
        lo_i, lo_j = self._cell_of(Vec2(center.x - radius, center.y - radius))
        hi_i, hi_j = self._cell_of(Vec2(center.x + radius, center.y + radius))
        radius_sq = radius * radius
        found = []
        for j in range(lo_j, hi_j + 1):
            for i in range(lo_i, hi_i + 1):
                for obj in self._cells.get((i, j), ()):
                    d = obj.ground_position - center
                    if d.norm_sq() <= radius_sq:
                        found.append(obj)
        return found


def assert_queries_match(scene, walk, center, radius, inner, min_radius):
    """Every array query at (center, radius) equals its reference form over
    the walk's list; ``near_be_ms`` and ``whole_be_ms`` (view limit =
    ``radius``) equal ``objects_ms`` over that list bit for bit."""
    expected = walk.objects_within(center, radius)
    assert ids(scene.objects_within(center, radius)) == ids(expected)
    inner_sq, outer_sq = inner * inner, radius * radius
    annulus = [
        obj for obj in expected
        if inner_sq < (obj.ground_position - center).norm_sq() <= outer_sq
    ]
    assert ids(scene.objects_in_annulus(center, inner, radius)) == ids(annulus)
    assert scene.triangles_within(center, radius) == sum(obj.triangles for obj in expected)
    near = scene.near_object_ids(center, radius, min_radius)
    reference = frozenset(obj.object_id for obj in expected if obj.radius >= min_radius)
    assert near == reference
    assert list(near) == list(reference)  # same insertion order
    model = RenderCostModel(PIXEL2)
    exact = model.objects_ms(expected, center)
    assert model.near_be_ms(scene, center, radius) == exact
    if radius > 0:
        limited = RenderCostModel(replace(PIXEL2, view_limit=radius))
        assert limited.whole_be_ms(scene, center) == exact


def ids(objects):
    return [obj.object_id for obj in objects]


def obj_at(object_id, x, y, triangles, radius):
    return SceneObject(
        object_id=object_id,
        kind_name="tree",
        center=Vec3(x, y, radius),
        radius=radius,
        triangles=triangles,
        luminance=0.3,
        contrast=0.4,
        texture_seed=object_id,
    )


@st.composite
def scene_and_query(draw):
    """A random scene — negative coordinates, objects on cell edges,
    co-located objects, possibly none — and one query against it."""
    cell = draw(st.sampled_from([1, 9.0, 16.0]))
    on_edge = st.integers(-5, 5).map(lambda k: float(k * cell))
    anywhere = st.floats(-60.0, 60.0, allow_nan=False)
    coord = st.one_of(on_edge, anywhere)
    points = draw(st.lists(st.tuples(coord, coord), max_size=30))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=6))
    objects = [
        obj_at(
            i, x, y,
            triangles=draw(st.integers(1, 50_000)),
            radius=draw(st.floats(0.05, 4.0)),
        )
        for i, (x, y) in enumerate(points)
    ]
    scene = Scene(Rect(-60, -60, 60, 60), objects, lambda p: 0.0, cell_size=cell)
    # Far-away centres give query rectangles outside every occupied cell.
    center_coord = st.one_of(coord, st.floats(-400.0, 400.0, allow_nan=False))
    center = Vec2(draw(center_coord), draw(center_coord))
    radius = draw(st.one_of(
        st.just(0.0),
        st.integers(0, 6).map(lambda k: float(k * cell)),
        st.floats(0.0, 50.0),
        st.just(180.0),  # covers the whole scene from any centre in it
    ))
    inner = draw(st.floats(0.0, 1.0)) * radius
    min_radius = draw(st.sampled_from([0.0, 1.0, 2.5]))
    return scene, center, radius, inner, min_radius


@settings(max_examples=200, deadline=None)
@given(scene_and_query())
def test_random_scenes_match_grid_walk(case):
    scene, center, radius, inner, min_radius = case
    assert_queries_match(scene, GridWalk(scene), center, radius, inner, min_radius)


def test_cell_rectangle_bounds_the_candidates():
    """Rounding can pass the squared-distance test for an object left of
    the first cell column the walk visits (here at ~1e15 m, where
    ``x - cx`` rounds down to ``r``).  The walk never sees it, so the mask
    must not either — this is what the rectangle term is for."""
    x, cx, r = 123170659998864.94, 5113339918864448.0, 4990169258865583.0
    scene = Scene(Rect(0, 0, 1, 1), [obj_at(0, x, 0.0, 10, 1.0)], lambda p: 0.0, cell_size=1)
    dx = x - cx
    assert dx * dx <= r * r
    assert math.floor(x) < math.floor(cx - r)
    assert scene.objects_within(Vec2(cx, 0.0), r) == []


def test_empty_scene_answers_nothing():
    scene = Scene(Rect(0, 0, 10, 10), [], lambda p: 0.0)
    assert scene.objects_within(Vec2(5, 5), 100.0) == []
    assert scene.triangles_within(Vec2(5, 5), 100.0) == 0
    assert scene.near_object_ids(Vec2(5, 5), 100.0) == frozenset()
    assert RenderCostModel(PIXEL2).whole_be_ms(scene, Vec2(5, 5)) == 0.0


@pytest.mark.parametrize("game", ALL_GAMES)
def test_games_match_grid_walk(game):
    """~100 seeded viewpoints per game, at the leaf cutoff the frame loop
    queries there and at the device view limit."""
    world = load_game(game)
    scene = world.scene
    model = RenderCostModel(PIXEL2)
    cutoff_map = build_cutoff_map(
        scene,
        model,
        measure_fi_budget(model, world.spec.fi_triangles),
        seed=3,
        reachable=world.grid.reachable_mask if world.track is not None else None,
    )
    walk = GridWalk(scene)
    rng = np.random.default_rng(sum(map(ord, game)))
    bounds = scene.bounds
    for x, y in zip(
        rng.uniform(bounds.x_min, bounds.x_max, 100).tolist(),
        rng.uniform(bounds.y_min, bounds.y_max, 100).tolist(),
    ):
        center = Vec2(x, y)
        _, cutoff = cutoff_map.leaf_for(center)
        for radius in (cutoff, PIXEL2.view_limit):
            assert_queries_match(scene, walk, center, radius, cutoff / 2, 0.05 * cutoff)

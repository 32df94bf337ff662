"""``Scene``'s array queries against the grid walk they replaced.

``Scene`` keeps its objects as cell-ordered arrays and answers every radius
query with one mask.  The contract is that each query returns what the
dict-of-lists grid walk returned — the same objects in the same order —
and that ``RenderCostModel.near_be_ms`` / ``whole_be_ms`` equal
``objects_ms`` over that list bit for bit, because the online frame loop's
digests (``tests/systems/test_loop_golden.py``) depend on every one of
those floats and on the near-set's insertion order.  The rasterizer's
``ObjectArrays`` slices equal the arrays of the matching lists, field for
field, so a draw fed a slice draws the list's objects in the list's order.
``GridWalk`` below is
the scalar reference; its ``objects_within`` body is the old method's,
verbatim.
"""

import math
from collections import defaultdict
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.core.constraint import measure_fi_budget
from repro.core.cutoff import build_cutoff_map
from repro.geometry import Rect, Vec2, Vec3
from repro.render import RenderCostModel
from repro.render.timing import PIXEL2
from repro.world import ALL_GAMES, ObjectArrays, Scene, SceneObject, load_game


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


def assert_queries_match(scene, walk, center, radius, inner, min_radius, device=PIXEL2):
    """Every array query at (center, radius) equals its reference form over
    the walk's list; ``near_be_ms`` and ``whole_be_ms`` (view limit =
    ``radius``) on ``device`` equal ``objects_ms`` over that list bit for
    bit."""
    expected = walk.objects_within(center, radius)
    assert ids(scene.objects_within(center, radius)) == ids(expected)
    inner_sq, outer_sq = inner * inner, radius * radius
    annulus = [
        obj for obj in expected
        if inner_sq < (obj.ground_position - center).norm_sq() <= outer_sq
    ]
    assert ids(scene.objects_in_annulus(center, inner, radius)) == ids(annulus)
    assert_arrays_equal(scene.object_arrays_within(center, radius), expected)
    assert_arrays_equal(scene.object_arrays_in_annulus(center, inner, radius), annulus)
    assert scene.triangles_within(center, radius) == sum(obj.triangles for obj in expected)
    near = scene.near_object_ids(center, radius, min_radius)
    reference = frozenset(obj.object_id for obj in expected if obj.radius >= min_radius)
    assert near == reference
    assert list(near) == list(reference)  # same insertion order
    model = RenderCostModel(device)
    exact = model.objects_ms(expected, center)
    assert model.near_be_ms(scene, center, radius) == exact
    if radius > 0:
        limited = RenderCostModel(replace(device, view_limit=radius))
        assert limited.whole_be_ms(scene, center) == exact


def ids(objects):
    return [obj.object_id for obj in objects]


def assert_arrays_equal(arrays, objects):
    """``arrays`` is ``ObjectArrays.from_objects(objects)``, dtypes included."""
    reference = ObjectArrays.from_objects(objects)
    for field in fields(ObjectArrays):
        got, want = getattr(arrays, field.name), getattr(reference, field.name)
        assert got.dtype == want.dtype and np.array_equal(got, want), field.name


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


# 0 never floors a weight, 1 floors every one; ``1 - 2**-40`` puts the
# floor's reach a few micrometres out.
LOD_FLOORS = st.one_of(
    st.sampled_from([0.0, 0.04, 0.5, 0.999999, 1.0 - 2.0**-40, 1.0]),
    st.floats(1e-3, 1.0 - 1e-3),
)


def reach_distances(model):
    """Distances at, one ulp either side of, the exact reach of
    ``model``'s LOD floor, and of the reach it rules by (past the margin)."""
    device = model.device
    exact = device.lod_distance * math.sqrt(1.0 / device.lod_floor - 1.0)
    return [
        d
        for edge in (exact, model._reach)
        for d in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf))
    ]


@st.composite
def scene_and_query(draw):
    """A random scene — negative coordinates, objects on cell edges,
    co-located objects, objects around the LOD floor's reach from the
    query centre, possibly none — one query against it and one device."""
    cell = draw(st.sampled_from([1, 9.0, 16.0]))
    on_edge = st.integers(-5, 5).map(lambda k: float(k * cell))
    anywhere = st.floats(-60.0, 60.0, allow_nan=False)
    coord = st.one_of(on_edge, anywhere)
    device = replace(PIXEL2, lod_floor=draw(LOD_FLOORS))
    model = RenderCostModel(device)
    # Far-away centres give query rectangles outside every occupied cell,
    # or row bands clipped at one or both ends of the occupied rows.
    center_coord = st.one_of(coord, st.floats(-400.0, 400.0, allow_nan=False))
    center = Vec2(draw(center_coord), draw(center_coord))
    points = draw(st.lists(st.tuples(coord, coord), max_size=30))
    if device.lod_floor > 0.0:
        at_reach = st.tuples(
            st.sampled_from(reach_distances(model)), st.floats(0.0, 2.0 * math.pi)
        )
        points += [
            (center.x + d * math.cos(a), center.y + d * math.sin(a))
            for d, a in draw(st.lists(at_reach, max_size=8))
        ]
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
    radius = draw(st.one_of(
        st.just(0.0),
        st.integers(0, 6).map(lambda k: float(k * cell)),
        st.floats(0.0, 50.0),
        st.just(180.0),  # covers the whole scene from any centre in it
        # Past the floor's reach, so the cost model splits its candidates.
        st.floats(0.0, 2.0).map(lambda u: min(model._reach, 400.0) * (1.0 + u)),
    ))
    inner = draw(st.floats(0.0, 1.0)) * radius
    min_radius = draw(st.sampled_from([0.0, 1.0, 2.5]))
    return scene, center, radius, inner, min_radius, device


@settings(max_examples=300, deadline=None)
@given(scene_and_query())
def test_random_scenes_match_grid_walk(case):
    scene, center, radius, inner, min_radius, device = case
    assert_queries_match(scene, GridWalk(scene), center, radius, inner, min_radius, device)


def test_floor_reach_margin_covers_rounding():
    """Objects a few ulps past the exact reach of 40 arbitrary floors, one
    per scene so no sum can round a difference away: the cost model floors
    them unmeasured, and must still equal what ``lod_weight`` computes for
    them (without the reach's margin it does not)."""
    rng = np.random.default_rng(7)
    for floor in rng.uniform(0.001, 0.999, 40).tolist():
        device = replace(PIXEL2, lod_floor=floor)
        model = RenderCostModel(device)
        exact = device.lod_distance * math.sqrt(1.0 / floor - 1.0)
        center = Vec2(*rng.uniform(-50.0, 50.0, 2).tolist())
        for step, angle in zip(
            rng.integers(1, 6, 25).tolist(), rng.uniform(0.0, 2.0 * math.pi, 25).tolist()
        ):
            d = exact * (1.0 + step * 2.0**-52)
            obj = obj_at(0, center.x + d * math.cos(angle), center.y + d * math.sin(angle), 1, 1.0)
            scene = Scene(Rect(-200, -200, 200, 200), [obj], lambda p: 0.0)
            expected = model.objects_ms(scene.objects_within(center, 2.0 * exact), center)
            assert model.near_be_ms(scene, center, 2.0 * exact) == expected, floor


def test_row_band_reads_only_the_spanned_rows():
    """A query reads the objects of the cell rows its square spans, clipped
    to the occupied rows, and nothing else."""
    rows = [-3, -3, 0, 2, 2, 2, 5]
    objects = [obj_at(k, 0.5 + k, j + 0.5, 10, 0.1) for k, j in enumerate(rows)]
    scene = Scene(Rect(-10, -10, 10, 10), objects, lambda p: 0.0, cell_size=1)
    for cy, radius, scanned in [
        (0.5, 1.0, 1),    # rows -1..1: row 0 only
        (2.5, 0.2, 3),    # row 2
        (-8.5, 6.0, 2),   # rows -15..-3: clipped below the first row
        (7.5, 3.0, 1),    # rows 4..10: clipped above the last row
        (0.5, 20.0, 7),   # clipped at both ends
        (20.5, 1.0, 0),   # above every row
        (-20.5, 1.0, 0),  # below every row
    ]:
        perf.reset()
        scene.objects_within(Vec2(0.5, cy), radius)
        assert perf.counter("scene_query.objects_scanned") == scanned, (cy, radius)


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

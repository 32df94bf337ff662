"""The batched scene queries against per-centre scalar references.

``RenderCostModel.near_be_ms`` and ``Scene.near_object_ids`` also take a
chunk of viewpoints, each with its own radius, and answer it with one call
of the disc kernel ``Scene.discs``.  For every centre, RT_nearBE must equal
``objects_ms(objects_within(p, r), p)`` over the grid walk's list, bit for
bit, and the near set must equal the walk's ids with
``radius >= min_radius``, iteration order included: the loop golden digests
hang on both.  The one-centre forms must agree too.  ``walk`` below is the
grid walk's order written out: cell row, then column, then insertion.
"""

import math
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.world.scene as scene_module
from repro.geometry import Rect, Vec2, Vec3
from repro.render import RenderCostModel
from repro.render.timing import PIXEL2
from repro.world import Scene, SceneObject


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


def walk(scene, center, radius):
    """The objects the grid walk returns for ``(center, radius)``, in its
    order: the cells of ``floor((center -/+ r) / cell)``, row by row."""
    size = scene.cell_size
    lo_i = math.floor((center.x - radius) / size)
    hi_i = math.floor((center.x + radius) / size)
    lo_j = math.floor((center.y - radius) / size)
    hi_j = math.floor((center.y + radius) / size)
    found = []
    for order, obj in enumerate(scene.objects):
        i = math.floor(obj.center.x / size)
        j = math.floor(obj.center.y / size)
        d = obj.ground_position - center
        if lo_i <= i <= hi_i and lo_j <= j <= hi_j and d.norm_sq() <= radius * radius:
            found.append(((j, i, order), obj))
    return [obj for _, obj in sorted(found, key=lambda item: item[0])]


def assert_centres_match(scene, model, centres, radii, min_fraction):
    near_ms = model.near_be_ms(scene, centres, radii)
    min_radii = [min_fraction * r for r in radii]
    near_sets = scene.near_object_ids(centres, radii, min_radii)
    assert len(near_ms) == len(near_sets) == len(centres)
    for c, r, min_radius, ms, near in zip(centres, radii, min_radii, near_ms, near_sets):
        assert ms == model.objects_ms(walk(scene, c, r), c), (c, r)
        assert ms == model.near_be_ms(scene, c, r)
        expected = frozenset(
            obj.object_id for obj in walk(scene, c, r) if obj.radius >= min_radius
        )
        assert near == expected, (c, r)
        assert list(near) == list(expected)  # same insertion order
        assert list(scene.near_object_ids(c, r, min_radius)) == list(expected)


# 0 never floors a weight, 1 floors every one.
LOD_FLOORS = st.one_of(st.sampled_from([0.0, 0.04, 0.5, 1.0]), st.floats(1e-3, 1.0 - 1e-3))


@st.composite
def chunk_case(draw):
    """A random scene and a chunk of 1, 2 or 33 centres: on cell edges and
    corners or anywhere, some outside the scene, with radii of 0, on cell
    multiples and on both sides of the LOD floor's reach, and objects on
    the edge of some centre's disc."""
    cell = draw(st.sampled_from([1, 9.0, 16.0]))
    on_edge = st.integers(-5, 5).map(lambda k: float(k * cell))
    anywhere = st.floats(-60.0, 60.0, allow_nan=False)
    coord = st.one_of(on_edge, anywhere)
    outside = st.floats(-400.0, 400.0, allow_nan=False)
    model = RenderCostModel(replace(PIXEL2, lod_floor=draw(LOD_FLOORS)))
    reach = min(model._reach, 400.0)
    n = draw(st.sampled_from([1, 2, 33]))
    radius = st.one_of(
        st.just(0.0),
        st.integers(0, 6).map(lambda k: float(k * cell)),
        st.floats(0.0, 50.0),
        st.floats(0.0, 2.0).map(lambda u: reach * (1.0 - 0.5 * u / 2.0)),
        st.floats(0.0, 2.0).map(lambda u: reach * (1.0 + u)),
    )
    centres, radii = [], []
    for _ in range(n):
        centres.append(Vec2(draw(st.one_of(coord, outside)), draw(st.one_of(coord, outside))))
        radii.append(draw(radius))
    points = draw(st.lists(st.tuples(coord, coord), max_size=30))
    for c, r in zip(centres, radii):
        if draw(st.booleans()):
            angle = draw(st.floats(0.0, 2.0 * math.pi))
            for step in range(-2, 3):
                d = r * (1.0 + step * 2.0**-52)
                points.append((c.x + d * math.cos(angle), c.y + d * math.sin(angle)))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=6))
    objects = [
        obj_at(i, x, y, triangles=draw(st.integers(1, 50_000)), radius=draw(st.floats(0.05, 4.0)))
        for i, (x, y) in enumerate(points)
    ]
    scene = Scene(Rect(-60, -60, 60, 60), objects, lambda p: 0.0, cell_size=cell)
    min_fraction = draw(st.sampled_from([0.0, 0.05, 0.5]))
    block = draw(st.sampled_from([scene_module.BLOCK_ELEMENTS, 64, 1]))
    return scene, model, centres, radii, min_fraction, block


@settings(max_examples=300, deadline=None)
@given(chunk_case())
def test_chunks_match_per_centre_references(case):
    scene, model, centres, radii, min_fraction, block = case
    # Small blocks split the chunk, so every block boundary is crossed.
    with mock.patch.object(scene_module, "BLOCK_ELEMENTS", block):
        assert_centres_match(scene, model, centres, radii, min_fraction)


def test_cell_rectangle_bounds_a_chunk():
    """At ~1e15 m, ``x - cx`` rounds down onto ``r`` for an object left of
    the first cell column the walk visits (``test_scene_arrays`` pins the
    one-centre case), and likewise below the first cell row.  In a chunk,
    next to a centre that does reach it, the kernel must still keep it out
    of exactly the discs whose rectangle misses it."""
    x, cx, r = 123170659998864.94, 5113339918864448.0, 4990169258865583.0
    dx = x - cx
    assert dx * dx <= r * r
    assert math.floor(x) < math.floor(cx - r)
    model = RenderCostModel(PIXEL2)
    for transpose in (False, True):
        def at(u):
            return Vec2(0.0, u) if transpose else Vec2(u, 0.0)

        o = at(x)
        scene = Scene(Rect(0, 0, 1, 1), [obj_at(0, o.x, o.y, 10, 1.0)], lambda p: 0.0, cell_size=1)
        centres = [at(cx), at(x), at(cx)]
        assert_centres_match(scene, model, centres, [r] * 3, 0.0)
        assert scene.near_object_ids(centres, [r] * 3) == [frozenset(), frozenset({0}), frozenset()]
        near_ms = model.near_be_ms(scene, centres, [r] * 3)
        assert near_ms[0] == near_ms[2] == 0.0 and near_ms[1] > 0.0


def test_empty_slabs_answer_nothing():
    """No centres, an empty scene, and centres whose cell rows hold no
    object."""
    model = RenderCostModel(PIXEL2)
    empty = Scene(Rect(0, 0, 10, 10), [], lambda p: 0.0)
    assert model.near_be_ms(empty, [], []) == []
    assert empty.near_object_ids([], [], []) == []
    centres = [Vec2(5, 5)] * 33
    assert model.near_be_ms(empty, centres, [100.0] * 33) == [0.0] * 33
    assert empty.near_object_ids(centres, [100.0] * 33, [5.0] * 33) == [frozenset()] * 33
    scene = Scene(Rect(0, 0, 10, 10), [obj_at(0, 5.0, 5.0, 10, 1.0)], lambda p: 0.0)
    far = [Vec2(5.0, 500.0), Vec2(5.0, -500.0)]
    assert model.near_be_ms(scene, far, [10.0, 0.0]) == [0.0] * 2
    assert scene.near_object_ids(far, [10.0, 0.0]) == [frozenset()] * 2

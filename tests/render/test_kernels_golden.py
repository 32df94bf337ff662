"""Golden-frame tests: ``draw_objects`` is bit-identical to its reference.

The one-pass object draw is a drop-in replacement for the per-object
scanline loop, not an approximation: ``draw_objects`` and
``_draw_objects_scalar`` (kept in ``rasterizer.py`` as the reference
implementation, with no caller in ``src``) must fill the same image, mask,
and depth buffers bit for bit — on every one of the nine study games at
the test resolution and at the default one the online loop and the
dist-thresh probes draw at, and on synthetic object lists built for the
cases the stock scenes never produce.  Panorama bytes, size models and
dist-thresh values are pure functions of those buffers, so this is also
what keeps every one of them — and every existing disk-cache entry — what
the reference would have produced.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, Vec2, Vec3
from repro.render.rasterizer import (
    RenderConfig,
    _draw_objects_scalar,
    draw_objects,
    empty_layer,
    render_background,
)
from repro.render.splitter import eye_at
from repro.world import ALL_GAMES, Scene, SceneObject, load_game

SCALE = 0.15
CONFIG = RenderConfig(width=64, height=32)
CUTOFF = 12.0

#: (game, world scale, render config): every game at the test resolution
#: (ids kept as the bare game name) and at the default 256x128.
GOLDEN_CASES = [pytest.param(game, SCALE, CONFIG, id=game) for game in ALL_GAMES] + [
    pytest.param(game, 1.0, RenderConfig(), id=f"{game}-256x128") for game in ALL_GAMES
]


def _draws(world, config):
    """(background layer, objects, eye) of a whole-BE and a far-BE draw
    at two viewpoints of one game — what ``render_whole_be`` and
    ``render_far_be`` hand to ``draw_objects``."""
    scene = world.scene
    bounds = scene.bounds
    draws = []
    for fraction in (0.35, 0.62):
        point = bounds.clamp(Vec2(
            bounds.x_min + fraction * (bounds.x_max - bounds.x_min),
            bounds.y_min + (1.0 - fraction) * (bounds.y_max - bounds.y_min),
        ))
        eye = eye_at(scene, point, world.spec.player.eye_height)
        draws.append((
            render_background(scene, eye, config),
            scene.objects_within(eye.ground(), config.view_limit),
            eye,
        ))
        draws.append((
            render_background(scene, eye, config, near_clip=CUTOFF),
            scene.objects_in_annulus(eye.ground(), CUTOFF, config.view_limit),
            eye,
        ))
    return draws


def _assert_layers_equal(a, b, context):
    """Bitwise equality of image, mask, and depth."""
    assert np.array_equal(a.image, b.image), f"{context}: image diverged"
    assert np.array_equal(a.mask, b.mask), f"{context}: mask diverged"
    assert np.array_equal(a.depth, b.depth), f"{context}: depth diverged"


def _assert_matches_reference(background, objects, eye, config, context):
    """``draw_objects`` and the reference, each on its own copy of
    ``background``, fill identical buffers; returns the drawn layer.  An
    empty list must leave the background untouched (the reference needs at
    least one object)."""
    expected = copy.deepcopy(background)
    if objects:
        expected = _draw_objects_scalar(expected, objects, eye, config)
    actual = draw_objects(copy.deepcopy(background), objects, eye, config)
    _assert_layers_equal(expected, actual, context)
    return actual


class TestVectorGolden:
    @pytest.mark.parametrize("game, scale, config", GOLDEN_CASES)
    def test_vector_matches_scalar_all_games(self, game, scale, config):
        """Reference vs ``draw_objects`` on whole-BE and far-BE draws."""
        world = load_game(game, scale=scale)
        drawn = 0
        for index, (background, objects, eye) in enumerate(_draws(world, config)):
            if not objects:
                continue
            drawn += 1
            _assert_matches_reference(background, objects, eye, config, f"{game}[{index}]")
        assert drawn, f"{game}: no draw had objects to compare"


EYE = Vec3(0.0, 0.0, 1.7)
FLAT = Scene(Rect(-200, -200, 200, 200), [], lambda p: 0.0)
PROPERTY_CONFIGS = [
    RenderConfig(width=64, height=32),
    RenderConfig(width=96, height=48, indoor=True),
    RenderConfig(width=48, height=24, min_angular_radius=0.05),
]


def _sphere(object_id, offset, radius, luminance=0.5, contrast=0.4):
    """A scene object whose centre sits at ``EYE + offset``."""
    return SceneObject(
        object_id=object_id,
        kind_name="tree",
        center=Vec3(EYE.x + offset[0], EYE.y + offset[1], EYE.z + offset[2]),
        radius=radius,
        triangles=100,
        luminance=luminance,
        contrast=contrast,
        texture_seed=object_id * 7919 + 3,
    )


def _objects(spec):
    """Scene objects from ``(azimuth, elevation, distance, radius,
    luminance, mirrored)`` tuples.  A mirrored entry adds the reflection of
    its object across the vertical plane through the eye's azimuth 0: the
    offsets differ only in the sign of y, so the two distances are equal
    bit for bit."""
    objects = []
    for az, el, dist, radius, luminance, mirrored in spec:
        offset = (
            dist * math.cos(el) * math.cos(az),
            dist * math.cos(el) * math.sin(az),
            dist * math.sin(el),
        )
        objects.append(_sphere(len(objects), offset, radius, luminance))
        if mirrored:
            mirror = (offset[0], -offset[1], offset[2])
            objects.append(_sphere(len(objects), mirror, radius, 1.0 - luminance))
    return objects


_AZIMUTH = st.one_of(
    st.floats(0.0, 2 * math.pi, exclude_max=True),
    st.floats(-0.15, 0.15),  # straddling the seam, from either side
)
_ELEVATION = st.one_of(
    st.floats(-1.2, 1.2),
    st.floats(1.3, 1.55),  # near the poles, where cos_el hits its 0.15 floor
    st.floats(-1.55, -1.3),
)
_DISTANCE = st.one_of(
    st.floats(0.3, 150.0),
    st.floats(0.0, 1.0),  # the eye inside the sphere, or on its centre
)
_RADIUS = st.one_of(
    st.floats(0.2, 6.0),
    st.floats(0.001, 0.05),  # culled below min_angular_radius unless close
)
_SPEC = st.lists(
    st.tuples(_AZIMUTH, _ELEVATION, _DISTANCE, _RADIUS, st.floats(0.0, 1.0), st.booleans()),
    max_size=10,
)
_ALL_CULLED = [(0.5 * k, 0.1, 120.0, 0.01, 0.5, False) for k in range(4)]


class TestVectorProperties:
    @settings(max_examples=120, deadline=None)
    @given(
        spec=_SPEC,
        config=st.sampled_from(PROPERTY_CONFIGS),
        near_clip=st.sampled_from([None, 0.0, 2.5, 9.0]),
    )
    @example(spec=[], config=PROPERTY_CONFIGS[0], near_clip=0.0)
    @example(spec=_ALL_CULLED, config=PROPERTY_CONFIGS[0], near_clip=0.0)
    def test_matches_reference_on_synthetic_objects(self, spec, config, near_clip):
        """Seam straddlers, eye-inside spheres, poles, culls, exact ties,
        a near-clipped ground competing for depth, and indoor fog."""
        if near_clip is None:
            background = empty_layer(config)
        else:
            background = render_background(FLAT, EYE, config, near_clip=near_clip)
        _assert_matches_reference(background, _objects(spec), EYE, config, repr(spec))

    def test_exact_distance_tie_keeps_list_order(self):
        """Two overlapping mirror pairs at bit-equal distances: whichever
        object of a pair is listed first owns the overlap, in either
        order, in ``draw_objects`` and in the reference alike."""
        a, b = _sphere(0, (10.0, 0.5, 0.0), 2.0, 0.2), _sphere(1, (10.0, -0.5, 0.0), 2.0, 0.8)
        c, d = _sphere(2, (-20.0, 1.0, 1.0), 3.0, 0.3), _sphere(3, (-20.0, -1.0, 1.0), 3.0, 0.7)
        alone = {obj.object_id: draw_objects(empty_layer(CONFIG), [obj], EYE, CONFIG)
                 for obj in (a, b, c, d)}
        for objects in ([a, b, c, d], [b, a, d, c]):
            drawn = _assert_matches_reference(empty_layer(CONFIG), objects, EYE, CONFIG, "tie")
            for first, second in (objects[:2], objects[2:]):
                overlap = alone[first.object_id].mask & alone[second.object_id].mask
                assert overlap.sum() > 4, "the mirror pair must overlap"
                expected = alone[first.object_id].image[overlap]
                assert np.array_equal(drawn.image[overlap], expected)

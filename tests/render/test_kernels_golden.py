"""Golden-frame tests: ``draw_objects`` is bit-identical to its reference.

The grouped-kernel object draw is a drop-in replacement for the
per-object scanline loop, not an approximation: for every one of the
nine study games, ``draw_objects`` and ``_draw_objects_scalar`` (kept in
``rasterizer.py`` as the reference implementation, with no caller in
``src``) must fill the same image, mask, and depth buffers bit for bit.
Panorama bytes, size models and dist-thresh values are pure functions of
those buffers, so this is also what keeps every one of them — and every
existing disk-cache entry — what the reference would have produced.
"""

import copy

import numpy as np
import pytest

from repro.geometry import Vec2
from repro.render.rasterizer import (
    RenderConfig,
    _draw_objects_scalar,
    draw_objects,
    render_background,
)
from repro.render.splitter import eye_at
from repro.world import ALL_GAMES, load_game

SCALE = 0.15
CONFIG = RenderConfig(width=64, height=32)
CUTOFF = 12.0


def _draws(world):
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
            render_background(scene, eye, CONFIG),
            scene.objects_within(eye.ground(), CONFIG.view_limit),
            eye,
        ))
        draws.append((
            render_background(scene, eye, CONFIG, near_clip=CUTOFF),
            scene.objects_in_annulus(eye.ground(), CUTOFF, CONFIG.view_limit),
            eye,
        ))
    return draws


def _assert_layers_equal(a, b, context):
    """Bitwise equality of image, mask, and depth."""
    assert np.array_equal(a.image, b.image), f"{context}: image diverged"
    assert np.array_equal(a.mask, b.mask), f"{context}: mask diverged"
    assert np.array_equal(a.depth, b.depth), f"{context}: depth diverged"


class TestVectorGolden:
    @pytest.mark.parametrize("game", ALL_GAMES)
    def test_vector_matches_scalar_all_games(self, game):
        """Reference vs ``draw_objects`` on whole-BE and far-BE draws."""
        world = load_game(game, scale=SCALE)
        drawn = 0
        for index, (background, objects, eye) in enumerate(_draws(world)):
            if not objects:
                continue
            drawn += 1
            expected = _draw_objects_scalar(
                copy.deepcopy(background), objects, eye, CONFIG
            )
            actual = draw_objects(background, objects, eye, CONFIG)
            _assert_layers_equal(expected, actual, f"{game}[{index}]")
        assert drawn, f"{game}: no draw had objects to compare"

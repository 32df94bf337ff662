"""Golden-frame tests: the vector rasterizer is bit-identical to scalar.

The vector kernel is a drop-in replacement, not an approximation: for
every one of the nine study games, scalar and vector ``draw_objects``
must produce the same image, mask, and depth buffers bit for bit — that
is what lets ``world_cache_key`` share disk-cache entries across kernel
modes and lets the benchmarks compare wall clocks on identical work.
"""

import dataclasses

import numpy as np
import pytest

from repro.geometry import Vec2
from repro.render import KERNEL_MODES
from repro.render.rasterizer import RenderConfig
from repro.render.splitter import eye_at, render_far_be, render_whole_be
from repro.world import ALL_GAMES, load_game

SCALE = 0.15
CONFIG = RenderConfig(width=64, height=32)


def _kernel_config(mode):
    """CONFIG with only the kernel mode swapped."""
    return dataclasses.replace(CONFIG, kernels=mode)


def _frames(world, config, cutoff=None):
    """A (whole, far) pair rendered at two viewpoints of one game."""
    bounds = world.scene.bounds
    eye_height = world.spec.player.eye_height
    frames = []
    for fraction in (0.35, 0.62):
        point = bounds.clamp(Vec2(
            bounds.x_min + fraction * (bounds.x_max - bounds.x_min),
            bounds.y_min + (1.0 - fraction) * (bounds.y_max - bounds.y_min),
        ))
        eye = eye_at(world.scene, point, eye_height)
        frames.append(render_whole_be(world.scene, eye, config))
        frames.append(render_far_be(
            world.scene, eye, config, cutoff if cutoff is not None else 12.0
        ))
    return frames


def _assert_layers_equal(a, b, context):
    """Bitwise equality of image, mask, and depth."""
    assert np.array_equal(a.image, b.image), f"{context}: image diverged"
    assert np.array_equal(a.mask, b.mask), f"{context}: mask diverged"
    assert np.array_equal(a.depth, b.depth), f"{context}: depth diverged"


class TestVectorGolden:
    @pytest.mark.parametrize("game", ALL_GAMES)
    def test_vector_matches_scalar_all_games(self, game):
        """Scalar vs vector whole-BE and far-BE layers, two viewpoints."""
        world = load_game(game, scale=SCALE)
        scalar = _frames(world, _kernel_config("scalar"))
        vector = _frames(world, _kernel_config("vector"))
        for index, (a, b) in enumerate(zip(scalar, vector)):
            _assert_layers_equal(a, b, f"{game}[{index}]")

    def test_kernel_modes_constant_is_exhaustive(self):
        """Every mode validates; an unknown one is rejected at construction."""
        assert KERNEL_MODES == ("scalar", "vector")
        for mode in KERNEL_MODES:
            assert _kernel_config(mode).kernels == mode
        with pytest.raises(ValueError):
            _kernel_config("simd")

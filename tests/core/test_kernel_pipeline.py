"""End-to-end kernel-mode pinning across the preprocessing pipeline.

The acceptance bar for the kernel layer is that ``vector`` is invisible
everywhere except wall clock: panorama bytes out of
:class:`PanoramaStore`, calibrated size models, and dist-thresh values
must all be bit-identical to the ``scalar`` oracle.  These tests pin that
end to end, plus the config plumbing (one ``render_config.kernels`` knob,
cache-key invariance).
"""

import dataclasses

import pytest

from repro.codec import FrameCodec
from repro.core.dist_thresh import leaf_threshold
from repro.core.preprocess import PanoramaStore, calibrate_size_model
from repro.core.store import world_cache_key
from repro.render import KERNEL_MODES
from repro.render.rasterizer import RenderConfig
from repro.systems.base import SessionConfig
from repro.world import load_game

SCALE = 0.15
BASE_CONFIG = RenderConfig(width=64, height=32)


def _mode_config(mode):
    return dataclasses.replace(BASE_CONFIG, kernels=mode)


def _world():
    return load_game("racing", scale=SCALE)


def _demand(world, count=8):
    """A deterministic sweep of distinct grid points."""
    points = []
    index = 0
    while len(points) < count:
        index += 1
        snapped = world.grid.snap(world.track.point_at(
            index * world.track.length() / (count * 2)
        ))
        if snapped not in points:
            points.append(snapped)
    return points


def _served_bytes(world, mode, cutoff_map):
    """Encoded panorama bytes served for the demand set under one mode."""
    store = PanoramaStore(
        world,
        _mode_config(mode),
        FrameCodec(),
        cutoff_map=cutoff_map,
        kind="far",
        eye_height=world.spec.player.eye_height,
    )
    return [store.frame_for(gp).encoded.data for gp in _demand(world)]


@pytest.fixture(scope="module")
def world_and_cutoffs():
    """One world + cutoff map shared by the mode-comparison tests."""
    from repro.core import build_cutoff_map, measure_fi_budget
    from repro.render import RenderCostModel

    world = _world()
    cost_model = RenderCostModel(SessionConfig().device)
    budget = measure_fi_budget(cost_model, world.spec.fi_triangles)
    cutoff_map = build_cutoff_map(world.scene, cost_model, budget, seed=0)
    return world, cutoff_map


class TestStoreBitIdentity:
    def test_panorama_bytes_identical_across_modes(self, world_and_cutoffs):
        """The acceptance pin: scalar == vector bytes."""
        world, cutoff_map = world_and_cutoffs
        served = {
            mode: _served_bytes(world, mode, cutoff_map)
            for mode in KERNEL_MODES
        }
        assert served["vector"] == served["scalar"]


class TestDerivedValues:
    def test_size_model_identical_across_modes(self, world_and_cutoffs):
        world, cutoff_map = world_and_cutoffs
        models = [
            calibrate_size_model(
                world, _mode_config(mode), FrameCodec(), cutoff_map,
                kind="far", samples=2, seed=0,
            )
            for mode in KERNEL_MODES
        ]
        assert len({(m.mean_bytes, m.std_bytes) for m in models}) == 1

    def test_leaf_threshold_identical_across_modes(self, world_and_cutoffs):
        world, cutoff_map = world_and_cutoffs
        leaf = next(iter(cutoff_map.tree.leaves()))
        from repro.core.cutoff import leaf_key

        key = leaf_key(leaf.region)
        cutoff = leaf.payload.cutoff_radius
        values = {
            mode: leaf_threshold(
                world.scene, _mode_config(mode), key, cutoff, seed=0,
                k_samples=1,
            )
            for mode in KERNEL_MODES
        }
        assert values["vector"] == values["scalar"]


class TestConfigPlumbing:
    def test_session_config_default_keeps_render_config(self):
        """The mode lives on ``render_config`` only — no second knob."""
        config = SessionConfig()
        assert not hasattr(config, "kernels")
        assert config.render_config.kernels == "vector"

    def test_render_config_rejects_unknown_mode(self):
        for mode in ("gpu", "vector+reuse"):
            with pytest.raises(ValueError):
                RenderConfig(kernels=mode)

    def test_cache_key_ignores_kernel_mode(self):
        """Bit-identical modes share disk-cache entries."""
        keys = {
            str(world_cache_key(
                "racing", SCALE, 0, _mode_config(mode), 23.0, 1.7
            ))
            for mode in KERNEL_MODES
        }
        assert len(keys) == 1

    def test_cache_key_still_sees_other_render_knobs(self):
        changed = dataclasses.replace(BASE_CONFIG, width=128)
        assert world_cache_key(
            "racing", SCALE, 0, BASE_CONFIG, 23.0, 1.7
        ) != world_cache_key("racing", SCALE, 0, changed, 23.0, 1.7)

"""Tests for near/far BE split rendering — the paper's central mechanism."""

import numpy as np
import pytest

from repro.geometry import Rect, Vec2, Vec3
from repro.render import (
    RenderConfig,
    eye_at,
    merge_layers,
    reference_frame,
    render_display_frame,
    render_far_be,
    render_fi,
    render_near_be,
    render_whole_be,
)
from repro.render.rasterizer import VIEW_LIMIT
from repro.render.splitter import render_near_and_whole_be
from repro.similarity import ssim
from repro.world import ALL_GAMES, Scene, SceneObject, load_game

CFG = RenderConfig(width=128, height=64)


def obj(object_id, x, y, radius=2.0, luminance=0.5):
    return SceneObject(
        object_id=object_id,
        kind_name="tree",
        center=Vec3(x, y, radius),
        radius=radius,
        triangles=1000,
        luminance=luminance,
        contrast=0.3,
        texture_seed=object_id * 13 + 5,
    )


@pytest.fixture
def scene():
    objects = [
        obj(1, 101.5, 100.0, radius=0.8),  # very near
        obj(2, 106.0, 100.0),              # near-ish
        obj(3, 130.0, 110.0),              # far
        obj(4, 160.0, 90.0, radius=4.0),   # far
    ]
    return Scene(Rect(0, 0, 200, 200), objects, terrain=lambda p: 0.0)


EYE = Vec3(100.0, 100.0, 1.7)


class TestEyeAt:
    def test_eye_includes_terrain_and_height(self):
        scene = Scene(Rect(0, 0, 10, 10), [], terrain=lambda p: 3.0)
        eye = eye_at(scene, Vec2(5, 5), eye_height=1.7)
        assert eye.z == pytest.approx(4.7)
        assert eye.ground() == Vec2(5, 5)


class TestSplitRendering:
    def test_far_be_excludes_near_objects(self, scene):
        far = render_far_be(scene, EYE, CFG, cutoff_radius=10.0)
        whole = render_whole_be(scene, EYE, CFG)
        # The near object (bright region at azimuth 0) present in whole,
        # absent in far.
        assert not np.array_equal(far.image, whole.image)
        # Far BE covers the sky fully but leaves the near-ground band (the
        # pixels inside the cutoff) for the near BE to fill.
        assert far.mask[0].all()
        assert 0.4 < far.coverage < 1.0

    def test_near_be_partial_coverage(self, scene):
        near = render_near_be(scene, EYE, CFG, cutoff_radius=10.0)
        assert 0.0 < near.coverage < 1.0

    def test_near_plus_far_reconstructs_whole(self, scene):
        whole = render_whole_be(scene, EYE, CFG)
        far = render_far_be(scene, EYE, CFG, cutoff_radius=10.0)
        near = render_near_be(scene, EYE, CFG, cutoff_radius=10.0)
        merged = merge_layers(far, near)
        # Split rendering is lossless at the same viewpoint: merging the two
        # halves reproduces the undecoupled frame almost exactly.
        assert ssim(merged, whole.image) > 0.99

    def test_zero_cutoff_far_equals_whole(self, scene):
        far = render_far_be(scene, EYE, CFG, cutoff_radius=0.0)
        whole = render_whole_be(scene, EYE, CFG)
        assert np.array_equal(far.image, whole.image)

    def test_negative_cutoff_raises(self, scene):
        with pytest.raises(ValueError):
            render_far_be(scene, EYE, CFG, cutoff_radius=-1.0)
        with pytest.raises(ValueError):
            render_near_be(scene, EYE, CFG, cutoff_radius=-1.0)

    def test_near_object_effect(self, scene):
        """The paper's core observation: small displacement hurts whole-BE
        similarity far more than far-BE similarity."""
        eye2 = Vec3(100.15, 100.0, 1.7)  # 15 cm step
        whole_a = render_whole_be(scene, EYE, CFG).image
        whole_b = render_whole_be(scene, eye2, CFG).image
        far_a = render_far_be(scene, EYE, CFG, 10.0).image
        far_b = render_far_be(scene, eye2, CFG, 10.0).image
        assert ssim(far_a, far_b) > ssim(whole_a, whole_b)

    def test_far_similarity_monotone_in_cutoff(self, scene):
        """Figure 5's shape: far-BE SSIM rises with the cutoff radius."""
        eye2 = Vec3(100.15, 100.0, 1.7)
        sims = []
        for cutoff in (0.0, 3.0, 10.0, 40.0):
            a = render_far_be(scene, EYE, CFG, cutoff).image
            b = render_far_be(scene, eye2, CFG, cutoff).image
            sims.append(ssim(a, b))
        assert sims[-1] > sims[0]
        assert sims[-1] > 0.95


class TestSharedGround:
    """``render_near_and_whole_be`` textures the ground once and must give
    the two separate renders bit for bit."""

    @pytest.mark.parametrize("game", ALL_GAMES)
    def test_equals_separate_renders_all_games(self, game):
        world = load_game(game)
        bounds = world.scene.bounds
        point = Vec2(
            bounds.x_min + 0.4 * (bounds.x_max - bounds.x_min),
            bounds.y_min + 0.6 * (bounds.y_max - bounds.y_min),
        )
        eye = eye_at(world.scene, point, world.spec.player.eye_height)
        config = RenderConfig()
        for cutoff in (0.0, 30.0, VIEW_LIMIT, 1.5 * VIEW_LIMIT):
            layers = render_near_and_whole_be(world.scene, eye, config, cutoff)
            expected = (
                render_near_be(world.scene, eye, config, cutoff),
                render_whole_be(world.scene, eye, config),
            )
            for name, got, want in zip(("near", "whole"), layers, expected):
                context = f"{game} {name} at cutoff {cutoff}"
                assert np.array_equal(got.image, want.image), context
                assert np.array_equal(got.mask, want.mask), context
                assert np.array_equal(got.depth, want.depth), context

    def test_negative_cutoff_raises(self, scene):
        with pytest.raises(ValueError):
            render_near_and_whole_be(scene, EYE, CFG, -1.0)


class TestFiAndDisplay:
    def test_render_fi_only_avatars(self):
        avatar = obj(99, 102.0, 100.0, radius=0.5, luminance=0.9)
        layer = render_fi([avatar], EYE, CFG)
        assert 0.0 < layer.coverage < 0.2

    def test_display_frame_with_reused_far_be(self, scene):
        """Coterie's reuse path: merging a *nearby* cached far BE with the
        locally rendered near BE still approximates the reference frame."""
        cached_far = render_far_be(scene, EYE, CFG, 10.0)
        moved_eye = Vec3(100.10, 100.0, 1.7)
        displayed = render_display_frame(
            scene, moved_eye, CFG, cutoff_radius=10.0, far_be=cached_far
        )
        reference = reference_frame(scene, moved_eye, CFG)
        assert ssim(displayed, reference) > 0.9

    def test_display_frame_fresh_far_matches_reference(self, scene):
        displayed = render_display_frame(scene, EYE, CFG, 10.0)
        reference = reference_frame(scene, EYE, CFG)
        assert ssim(displayed, reference) > 0.98

    def test_reference_frame_deterministic(self, scene):
        a = reference_frame(scene, EYE, CFG)
        b = reference_frame(scene, EYE, CFG)
        assert np.array_equal(a, b)

"""Tests for the panoramic rasterizer."""

import math

import numpy as np
import pytest

from repro.geometry import Rect, Vec2, Vec3
from repro.render import (
    Layer,
    RenderConfig,
    draw_objects,
    empty_layer,
    merge_layers,
    render_background,
)
from repro.world import ObjectArrays, Scene, SceneObject

CFG = RenderConfig(width=128, height=64)


def make_scene(objects=(), terrain=lambda p: 0.0):
    return Scene(Rect(0, 0, 200, 200), objects, terrain)


def obj(object_id, x, y, radius=2.0, luminance=0.5, z=None):
    center_z = z if z is not None else radius
    return SceneObject(
        object_id=object_id,
        kind_name="tree",
        center=Vec3(x, y, center_z),
        radius=radius,
        triangles=1000,
        luminance=luminance,
        contrast=0.3,
        texture_seed=object_id * 7 + 1,
    )


EYE = Vec3(100.0, 100.0, 1.7)


class TestRenderConfig:
    def test_defaults_valid(self):
        RenderConfig()

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            RenderConfig(width=4, height=64)
        with pytest.raises(ValueError):
            RenderConfig(view_limit=0)
        with pytest.raises(ValueError):
            RenderConfig(min_angular_radius=-1)


class TestBackground:
    def test_full_background_covers_frame(self):
        layer = render_background(make_scene(), EYE, CFG)
        assert layer.coverage == 1.0
        assert layer.image.shape == (64, 128)
        assert layer.image.dtype == np.float32

    def test_sky_brighter_than_ground(self):
        layer = render_background(make_scene(), EYE, CFG)
        sky = layer.image[: 64 // 4].mean()
        ground = layer.image[-64 // 4 :].mean()
        assert sky > ground

    def test_ground_depth_increases_toward_horizon(self):
        layer = render_background(make_scene(), EYE, CFG)
        # Bottom row looks nearly straight down (small distance); rows just
        # below the horizon are far away.
        assert layer.depth[-1, 0] < layer.depth[33, 0]

    def test_near_clip_removes_close_ground(self):
        layer = render_background(make_scene(), EYE, CFG, near_clip=5.0)
        # Pixels looking steeply down (closest ground) are not covered.
        assert not layer.mask[-1].any()
        # Sky still covered.
        assert layer.mask[0].all()

    def test_far_clip_removes_sky_and_far_ground(self):
        layer = render_background(make_scene(), EYE, CFG, far_clip=5.0)
        assert not layer.mask[0].any()  # no sky
        assert layer.mask[-1].all()  # near ground present

    def test_clip_band_is_annulus(self):
        inner = render_background(make_scene(), EYE, CFG, far_clip=5.0)
        outer = render_background(make_scene(), EYE, CFG, near_clip=5.0)
        # The two masks tile the full frame without overlap.
        assert not (inner.mask & outer.mask).any()
        assert (inner.mask | outer.mask).all()

    def test_invalid_clip_raises(self):
        with pytest.raises(ValueError):
            render_background(make_scene(), EYE, CFG, near_clip=-1)
        with pytest.raises(ValueError):
            render_background(make_scene(), EYE, CFG, near_clip=5, far_clip=2)

    def test_deterministic(self):
        a = render_background(make_scene(), EYE, CFG)
        b = render_background(make_scene(), EYE, CFG)
        assert np.array_equal(a.image, b.image)

    def test_indoor_flat_ceiling(self):
        cfg = RenderConfig(width=128, height=64, indoor=True)
        layer = render_background(make_scene(), EYE, cfg)
        # Indoor ceiling is uniform.
        assert np.std(layer.image[:8]) == pytest.approx(0.0, abs=1e-5)


class TestDrawObjects:
    def test_object_appears_in_expected_direction(self):
        # Object due +x of the eye: azimuth 0 -> leftmost columns.
        scene_obj = obj(1, 110.0, 100.0, radius=2.0, luminance=0.9)
        layer = render_background(make_scene(), EYE, CFG)
        before = layer.image.copy()
        draw_objects(layer, ObjectArrays.from_objects([scene_obj]), EYE, CFG)
        changed = np.nonzero(np.abs(layer.image - before) > 1e-6)
        assert changed[0].size > 0
        cols = changed[1]
        # Azimuth 0 maps to column ~0 (wrapping); all changes near there.
        assert np.all((cols < 15) | (cols > 113))

    def test_nearer_object_larger(self):
        layer_near = empty_layer(CFG)
        draw_objects(layer_near, ObjectArrays.from_objects([obj(1, 105.0, 100.0)]), EYE, CFG)
        layer_far = empty_layer(CFG)
        draw_objects(layer_far, ObjectArrays.from_objects([obj(1, 140.0, 100.0)]), EYE, CFG)
        assert layer_near.mask.sum() > 4 * layer_far.mask.sum()

    def test_depth_test_near_occludes_far(self):
        near = obj(1, 105.0, 100.0, radius=2.0, luminance=0.1)
        far = obj(2, 120.0, 100.0, radius=2.0, luminance=0.9)
        layer = empty_layer(CFG)
        draw_objects(layer, ObjectArrays.from_objects([near, far]), EYE, CFG)
        # Where both overlap, the near (dark) object wins; the bright far
        # object should not fully cover the near region.
        covered = layer.image[layer.mask]
        assert covered.min() < 0.35

    def test_object_behind_ground_horizon_not_drawn_over_near_ground(self):
        # Ground right below the eye is ~1.7 m away; an object 50 m out must
        # not overwrite those pixels.
        layer = render_background(make_scene(), EYE, CFG)
        bottom_before = layer.image[-4:].copy()
        far = ObjectArrays.from_objects([obj(1, 150.0, 100.0, radius=3.0)])
        draw_objects(layer, far, EYE, CFG)
        assert np.array_equal(layer.image[-4:], bottom_before)

    def test_subpixel_object_culled(self):
        tiny = obj(1, 190.0, 100.0, radius=0.05)
        layer = empty_layer(CFG)
        draw_objects(layer, ObjectArrays.from_objects([tiny]), EYE, CFG)
        assert layer.mask.sum() == 0

    def test_seam_wrapping_object(self):
        # Object due -x (azimuth pi) sits mid-frame; object at azimuth just
        # below 2*pi wraps across the seam.
        eye = Vec3(100.0, 100.0, 1.7)
        west = obj(1, 110.0, 99.0)  # azimuth slightly below 0 -> wraps
        layer = empty_layer(CFG)
        draw_objects(layer, ObjectArrays.from_objects([west]), eye, CFG)
        assert layer.mask.sum() > 0

    def test_empty_object_list_noop(self):
        layer = empty_layer(CFG)
        out = draw_objects(layer, ObjectArrays.from_objects([]), EYE, CFG)
        assert out.mask.sum() == 0

    def test_deterministic(self):
        a = empty_layer(CFG)
        b = empty_layer(CFG)
        objs = [obj(i, 100 + 3 * i, 95 + 2 * i) for i in range(1, 6)]
        draw_objects(a, ObjectArrays.from_objects(objs), EYE, CFG)
        draw_objects(b, ObjectArrays.from_objects(objs), EYE, CFG)
        assert np.array_equal(a.image, b.image)


class TestMergeLayers:
    def test_overlay_replaces_covered_pixels(self):
        base = render_background(make_scene(), EYE, CFG)
        overlay = empty_layer(CFG)
        overlay.image[10:20, 30:40] = 0.123
        overlay.mask[10:20, 30:40] = True
        out = merge_layers(base, overlay)
        assert np.all(out[10:20, 30:40] == np.float32(0.123))
        assert out[0, 0] == base.image[0, 0]

    def test_later_overlay_wins(self):
        base = empty_layer(CFG)
        first = empty_layer(CFG)
        first.image[:] = 0.3
        first.mask[:] = True
        second = empty_layer(CFG)
        second.image[5, 5] = 0.9
        second.mask[5, 5] = True
        out = merge_layers(base, first, second)
        assert out[5, 5] == np.float32(0.9)
        assert out[0, 0] == np.float32(0.3)

    def test_shape_mismatch_raises(self):
        base = empty_layer(CFG)
        other = empty_layer(RenderConfig(width=64, height=32))
        with pytest.raises(ValueError):
            merge_layers(base, other)

    def test_merge_does_not_mutate_base(self):
        base = render_background(make_scene(), EYE, CFG)
        snapshot = base.image.copy()
        overlay = empty_layer(CFG)
        overlay.image[:] = 1.0
        overlay.mask[:] = True
        merge_layers(base, overlay)
        assert np.array_equal(base.image, snapshot)

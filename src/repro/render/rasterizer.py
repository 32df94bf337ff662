"""Software panoramic rasterizer.

Renders 360-degree equirectangular luminance frames of a scene from an eye
position, with near/far clipping by *ground distance* — the same radial
criterion the paper's near/far BE split uses.  Objects are drawn as
textured, fogged, depth-tested angular disks; the ground plane is textured
in world space so it translates correctly under player movement; the sky is
an elevation gradient with azimuth-anchored cloud noise.

The projection uses true angular sizes (``angular_radius``), so the
"near-object" effect of §4.2 is emergent: an object at 1 m sweeps across
many pixels when the player steps sideways, an object at 50 m barely moves.

Approximations (documented in DESIGN.md): objects are bounding-sphere
impostors with view-facing procedural texture; ground uses the local
flat-plane distance; terrain does not occlude distant objects.  None of
these affect the distance-dependence that drives frame similarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .. import perf
from ..geometry import Vec3, angular_radius, direction_to_angles
from ..world.objects import SceneObject
from ..world.scene import Scene
from .framebuffer import cell_noise, clip_frame, fractal_noise, new_frame, value_noise

TWO_PI = 2.0 * math.pi
_INFINITY = float("inf")


@dataclass(frozen=True)
class RenderConfig:
    """Rendering parameters shared by client and server renderers."""

    width: int = 256
    height: int = 128
    view_limit: float = 200.0  # max object draw distance (m)
    fog_distance: float = 300.0  # distance at which fog ~ 63%
    min_angular_radius: float = 0.004  # skip objects smaller than ~1/3 px (rad)
    ground_texture_scale: float = 20.0  # finest ground noise: cells per metre
    sky_luminance: float = 0.85
    ground_luminance: float = 0.42
    fog_luminance: float = 0.74
    object_texture_freq: float = 3.0
    indoor: bool = False

    def __post_init__(self) -> None:
        if self.width < 8 or self.height < 4:
            raise ValueError(f"frame {self.width}x{self.height} too small")
        if self.view_limit <= 0 or self.fog_distance <= 0:
            raise ValueError("view_limit and fog_distance must be positive")
        if self.min_angular_radius < 0:
            raise ValueError("min_angular_radius must be non-negative")


@dataclass
class Layer:
    """One rendered compositing layer.

    ``image`` is the luminance frame; ``mask`` marks pixels this layer
    covers (a far-BE layer covers everything, a near-BE layer only its own
    geometry); ``depth`` is per-pixel distance in metres for depth testing.
    """

    image: np.ndarray
    mask: np.ndarray
    depth: np.ndarray

    @property
    def coverage(self) -> float:
        """Fraction of the frame this layer covers."""
        return float(self.mask.mean())


def _pixel_angles(config: RenderConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Azimuth per column and elevation per row, at pixel centres."""
    az = (np.arange(config.width) + 0.5) / config.width * TWO_PI
    el = (0.5 - (np.arange(config.height) + 0.5) / config.height) * math.pi
    return az, el


def render_background(
    scene: Scene,
    eye: Vec3,
    config: RenderConfig,
    near_clip: float = 0.0,
    far_clip: float = _INFINITY,
) -> Layer:
    """Sky plus the ground-plane band with ``near_clip < d <= far_clip``.

    ``near_clip``/``far_clip`` act on the ground-hit distance; the sky has
    infinite distance and is included whenever ``far_clip`` is infinite.
    """
    if near_clip < 0 or far_clip < near_clip:
        raise ValueError(f"invalid clip range [{near_clip}, {far_clip}]")
    with perf.timed("raster"):
        return _render_background(scene, eye, config, near_clip, far_clip)


def _render_background(
    scene: Scene,
    eye: Vec3,
    config: RenderConfig,
    near_clip: float,
    far_clip: float,
) -> Layer:
    az, el = _pixel_angles(config)
    image = new_frame(config.width, config.height)
    mask = np.zeros_like(image, dtype=bool)
    depth = np.full_like(image, _INFINITY, dtype=np.float64)
    seed = scene.ground_seed

    include_sky = math.isinf(far_clip)
    if include_sky:
        sky_rows = el >= 0.0
        if np.any(sky_rows):
            el_sky = el[sky_rows][:, None]
            cloud = value_noise(
                az[None, :] * 3.0 / TWO_PI * 8.0,
                np.broadcast_to(el_sky * 4.0, (el_sky.shape[0], az.size)),
                seed + 17,
            )
            sky = config.sky_luminance - 0.18 * (el_sky / (math.pi / 2)) + 0.06 * (
                cloud - 0.5
            )
            if config.indoor:
                # Indoors the "sky" is a ceiling: flat, darker, no clouds.
                sky = np.full_like(sky, config.sky_luminance * 0.7)
            image[sky_rows, :] = sky.astype(np.float32)
            mask[sky_rows, :] = True

    ground_rows = el < -1e-4
    height_above_ground = eye.z - scene.terrain(eye.ground())
    if np.any(ground_rows) and height_above_ground > 1e-6:
        el_g = el[ground_rows]
        d = height_above_ground / np.tan(-el_g)  # per-row ground distance
        visible_rows = (d > near_clip) & (d <= min(far_clip, 10_000.0))
        if np.any(visible_rows):
            rows_idx = np.nonzero(ground_rows)[0][visible_rows]
            d_vis = d[visible_rows][:, None]
            hit_x = eye.x + np.cos(az)[None, :] * d_vis
            hit_y = eye.y + np.sin(az)[None, :] * d_vis
            # Mip-mapped world-anchored texture: the noise cell grows with
            # distance so features stay ~2.5 px wide on screen.  Near rows
            # get centimetre-scale detail (which a centimetre of player
            # movement visibly shifts -> the near-object effect extends to
            # the ground), far rows get coarse stable texture instead of
            # sub-pixel aliasing.
            pixel_rad = math.pi / config.height
            cell = np.maximum(
                1.0 / config.ground_texture_scale, 2.5 * pixel_rad * d_vis
            )
            tex = fractal_noise(hit_x / cell, hit_y / cell, seed + 29, octaves=2)
            lum = config.ground_luminance * (0.7 + 0.6 * tex)
            fog = 1.0 - np.exp(-d_vis / config.fog_distance)
            if config.indoor:
                fog = fog * 0.2  # no atmospheric haze indoors
            value = lum * (1.0 - fog) + config.fog_luminance * fog
            image[rows_idx, :] = value.astype(np.float32)
            mask[rows_idx, :] = True
            depth[rows_idx, :] = d_vis

    return Layer(image=clip_frame(image), mask=mask, depth=depth)


def draw_objects(
    layer: Layer,
    objects: Sequence[SceneObject],
    eye: Vec3,
    config: RenderConfig,
) -> Layer:
    """Depth-test-draw objects into an existing layer (painter-safe).

    Objects are sorted far to near; each pixel write checks the depth
    buffer so near geometry (including ground already in the layer) wins.
    Objects subtending less than about half a pixel are culled (matching
    what any real renderer's LOD would drop at this resolution).
    """
    if not objects:
        return layer
    with perf.timed("raster"):
        return _draw_objects_vector(layer, objects, eye, config)


def _cull_objects(
    objects: Sequence[SceneObject], eye: Vec3, config: RenderConfig
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized visibility cull shared by the draw and its reference.

    Returns per-object distances, angular radii, and the indices of the
    surviving objects in far-to-near draw order (stable sort, so depth
    ties resolve identically in both).
    """
    min_ang = max(config.min_angular_radius, 0.55 * math.pi / config.height)
    centers = np.array([obj.center.as_tuple() for obj in objects])
    radii = np.array([obj.radius for obj in objects])
    offsets = centers - np.array([eye.x, eye.y, eye.z])
    dists = np.linalg.norm(offsets, axis=1)
    with np.errstate(invalid="ignore"):
        ang = np.arcsin(np.minimum(1.0, radii / np.maximum(dists, 1e-9)))
    ang = np.where(dists <= radii, math.pi, ang)
    keep = (dists > 1e-6) & (ang >= min_ang)
    order = np.argsort(-dists[keep])
    kept_indices = np.nonzero(keep)[0][order]
    return dists, ang, kept_indices


def _draw_objects_scalar(
    layer: Layer,
    objects: Sequence[SceneObject],
    eye: Vec3,
    config: RenderConfig,
) -> Layer:
    """Reference implementation: one scanline loop per object.

    Not called from ``src``: ``tests/render/test_kernels_golden.py`` holds
    :func:`draw_objects` to this, bit for bit, on all nine games.
    """
    az_cols, el_rows = _pixel_angles(config)
    width, height = config.width, config.height
    image, mask, depth = layer.image, layer.mask, layer.depth

    dists, ang, kept_indices = _cull_objects(objects, eye, config)

    for index in kept_indices:
        obj = objects[index]
        dist = float(dists[index])
        ang_r = min(float(ang[index]), math.pi / 2 - 1e-3)
        az0, el0 = direction_to_angles(obj.center - eye)

        # Pixel-space bounding box (columns wrap around the seam).
        rv = ang_r * height / math.pi
        v0 = (0.5 - el0 / math.pi) * height
        row_lo = max(0, int(math.floor(v0 - rv - 1)))
        row_hi = min(height - 1, int(math.ceil(v0 + rv + 1)))
        if row_lo > row_hi:
            continue
        cos_el = max(0.15, math.cos(el0))
        ru = ang_r / cos_el * width / TWO_PI
        u0 = az0 / TWO_PI * width
        col_lo = int(math.floor(u0 - ru - 1))
        col_hi = int(math.ceil(u0 + ru + 1))
        if col_hi - col_lo + 1 >= width:
            col_lo, col_hi = 0, width - 1

        # Split the (possibly seam-wrapping) column range into contiguous
        # segments so all writes go through cheap slice views.
        segments = []
        if col_lo < 0:
            segments.append((col_lo % width, width))
            segments.append((0, col_hi + 1))
        elif col_hi >= width:
            segments.append((col_lo, width))
            segments.append((0, col_hi - width + 1))
        else:
            segments.append((col_lo, col_hi + 1))

        d_el = (el_rows[row_lo : row_hi + 1] - el0)[:, None]
        fog = 1.0 - math.exp(-dist / config.fog_distance)
        if config.indoor:
            fog *= 0.2
        # Feature size adapts to the object's on-screen size (~2.8 px per
        # noise cell): big near objects show fine detail that decorrelates
        # under small viewpoint shifts, tiny far objects stay smooth.
        ang_r_px = ang_r * height / math.pi
        freq = min(32.0, max(1.0, ang_r_px / 2.8)) * config.object_texture_freq / 3.0

        for c0, c1 in segments:
            if c0 >= c1:
                continue
            daz = (az_cols[c0:c1] - az0 + math.pi) % TWO_PI - math.pi
            daz = (daz * cos_el)[None, :]
            inside = daz * daz + d_el * d_el <= ang_r * ang_r
            if not inside.any():
                continue
            sub_depth = depth[row_lo : row_hi + 1, c0:c1]
            writable = inside & (dist < sub_depth)
            if not writable.any():
                continue
            # View-facing procedural texture, anchored to the object so it
            # translates with it (critical for honest frame similarity).
            tex = cell_noise(
                daz / ang_r * freq + 11.3,
                d_el / ang_r * freq + 7.7,
                obj.texture_seed,
            )
            shade = 1.0 + 0.22 * (d_el / ang_r)  # lit from above
            lum = obj.luminance * (1.0 - obj.contrast * (tex - 0.5)) * shade
            value = lum * (1.0 - fog) + config.fog_luminance * fog
            np.clip(value, 0.0, 1.0, out=value)
            image[row_lo : row_hi + 1, c0:c1][writable] = value.astype(np.float32)[
                writable
            ]
            sub_depth[writable] = dist
            mask[row_lo : row_hi + 1, c0:c1][writable] = True

    return layer


def _pad_dim(n: int) -> int:
    """Smallest power of two >= ``n`` (bucket padding size)."""
    return 1 << (max(1, int(n)) - 1).bit_length()


def _draw_objects_vector(
    layer: Layer,
    objects: Sequence[SceneObject],
    eye: Vec3,
    config: RenderConfig,
) -> Layer:
    """Grouped-kernel object draw, bit-identical to the scalar reference.

    The scalar loop spends ~40 us of numpy-call overhead per object on
    bounding boxes that are typically a handful of pixels, so the frame
    cost is dominated by interpreter dispatch, not arithmetic.  This path
    restructures the same work into four phases:

    1. **setup** — a cheap per-object Python loop computes the scalar
       draw parameters (bbox, fog, texture frequency) with exactly the
       same ``math.*`` calls as the oracle, emitting one *draw unit* per
       (object, seam segment) in global far-to-near order;
    2. **bucket** — units are grouped by power-of-two-padded bbox size so
       each group forms one rectangular ``(n, rows, cols)`` batch;
    3. **evaluate** — each bucket runs the per-pixel math (angular disk
       test, cell-noise texture, shading, fog) as one vectorized kernel.
       Elementwise float ops are per-element deterministic in numpy, so
       batching cannot change any pixel value;
    4. **scatter** — writes replay sequentially in the original draw
       order with the same strict ``dist < depth`` test, preserving the
       painter/tie semantics of the oracle exactly.

    Padding lanes are masked out via per-unit validity masks; padded
    row/column indices are clamped before the angle-table gather so they
    stay in range (their values are computed but never written).
    """
    az_cols, el_rows = _pixel_angles(config)
    width, height = config.width, config.height
    image, mask, depth = layer.image, layer.mask, layer.depth

    dists, ang, kept_indices = _cull_objects(objects, eye, config)

    # Phase 1 — per-object scalar parameters (identical math to the oracle).
    units = []  # (row_lo, row_hi, c0, c1, az0, el0, cos_el, ang_r, dist,
    #              fog, freq, seed, luminance, contrast)
    for index in kept_indices:
        obj = objects[index]
        dist = float(dists[index])
        ang_r = min(float(ang[index]), math.pi / 2 - 1e-3)
        az0, el0 = direction_to_angles(obj.center - eye)
        rv = ang_r * height / math.pi
        v0 = (0.5 - el0 / math.pi) * height
        row_lo = max(0, int(math.floor(v0 - rv - 1)))
        row_hi = min(height - 1, int(math.ceil(v0 + rv + 1)))
        if row_lo > row_hi:
            continue
        cos_el = max(0.15, math.cos(el0))
        ru = ang_r / cos_el * width / TWO_PI
        u0 = az0 / TWO_PI * width
        col_lo = int(math.floor(u0 - ru - 1))
        col_hi = int(math.ceil(u0 + ru + 1))
        if col_hi - col_lo + 1 >= width:
            col_lo, col_hi = 0, width - 1
        segments = []
        if col_lo < 0:
            segments.append((col_lo % width, width))
            segments.append((0, col_hi + 1))
        elif col_hi >= width:
            segments.append((col_lo, width))
            segments.append((0, col_hi - width + 1))
        else:
            segments.append((col_lo, col_hi + 1))
        fog = 1.0 - math.exp(-dist / config.fog_distance)
        if config.indoor:
            fog *= 0.2
        ang_r_px = ang_r * height / math.pi
        freq = min(32.0, max(1.0, ang_r_px / 2.8)) * config.object_texture_freq / 3.0
        for c0, c1 in segments:
            if c0 >= c1:
                continue
            units.append(
                (row_lo, row_hi, c0, c1, az0, el0, cos_el, ang_r, dist,
                 fog, freq, obj.texture_seed, obj.luminance, obj.contrast)
            )
    if not units:
        return layer
    perf.count("raster.vector.units", len(units))

    # Phase 2 — bucket by padded bbox size.
    buckets: dict = {}
    for pos, unit in enumerate(units):
        key = (_pad_dim(unit[1] - unit[0] + 1), _pad_dim(unit[3] - unit[2]))
        buckets.setdefault(key, []).append(pos)
    perf.count("raster.vector.buckets", len(buckets))

    # Phase 3 — one vectorized evaluation per bucket.
    values = [None] * len(units)  # float32 (rows, cols) per unit
    insides = [None] * len(units)  # bool (rows, cols) per unit
    drawable = np.zeros(len(units), dtype=bool)
    for (rows_pad, cols_pad), members in buckets.items():
        sub = [units[p] for p in members]
        row_lo_a = np.array([u[0] for u in sub])
        n_rows = np.array([u[1] - u[0] + 1 for u in sub])
        c0_a = np.array([u[2] for u in sub])
        n_cols = np.array([u[3] - u[2] for u in sub])
        az0_a = np.array([u[4] for u in sub])[:, None]
        el0_a = np.array([u[5] for u in sub])[:, None]
        cos_a = np.array([u[6] for u in sub])[:, None]
        ang_r3 = np.array([u[7] for u in sub])[:, None, None]
        fog3 = np.array([u[9] for u in sub])[:, None, None]
        freq3 = np.array([u[10] for u in sub])[:, None, None]
        seed3 = np.array([u[11] for u in sub], dtype=np.int64)[:, None, None]
        lum3 = np.array([u[12] for u in sub])[:, None, None]
        con3 = np.array([u[13] for u in sub])[:, None, None]

        # Gathered pixel angles; padded lanes clamp into range and are
        # masked out of `inside` below.
        row_idx = np.minimum(row_lo_a[:, None] + np.arange(rows_pad), height - 1)
        col_idx = np.minimum(c0_a[:, None] + np.arange(cols_pad), width - 1)
        d_el = (el_rows[row_idx] - el0_a)[:, :, None]  # (n, R, 1)
        daz = (az_cols[col_idx] - az0_a + math.pi) % TWO_PI - math.pi
        daz = (daz * cos_a)[:, None, :]  # (n, 1, C)

        inside = daz * daz + d_el * d_el <= ang_r3 * ang_r3
        valid = (np.arange(rows_pad)[None, :] < n_rows[:, None])[:, :, None]
        valid = valid & (np.arange(cols_pad)[None, :] < n_cols[:, None])[:, None, :]
        inside &= valid

        tex = cell_noise(
            daz / ang_r3 * freq3 + 11.3,
            d_el / ang_r3 * freq3 + 7.7,
            seed3,
        )
        shade = 1.0 + 0.22 * (d_el / ang_r3)  # lit from above
        lum = lum3 * (1.0 - con3 * (tex - 0.5)) * shade
        value = lum * (1.0 - fog3) + config.fog_luminance * fog3
        np.clip(value, 0.0, 1.0, out=value)
        value32 = value.astype(np.float32)

        any_inside = inside.reshape(len(sub), -1).any(axis=1)
        for slot, pos in enumerate(members):
            u = units[pos]
            r, c = u[1] - u[0] + 1, u[3] - u[2]
            values[pos] = value32[slot, :r, :c]
            insides[pos] = inside[slot, :r, :c]
            drawable[pos] = any_inside[slot]

    # Phase 4 — sequential scatter in the exact global draw order.
    for pos, unit in enumerate(units):
        if not drawable[pos]:
            continue
        row_lo, row_hi, c0, c1 = unit[:4]
        dist = unit[8]
        sub_depth = depth[row_lo : row_hi + 1, c0:c1]
        writable = insides[pos] & (dist < sub_depth)
        if not writable.any():
            continue
        image[row_lo : row_hi + 1, c0:c1][writable] = values[pos][writable]
        sub_depth[writable] = dist
        mask[row_lo : row_hi + 1, c0:c1][writable] = True

    return layer


def empty_layer(config: RenderConfig) -> Layer:
    """A transparent layer (no coverage, infinite depth)."""
    image = new_frame(config.width, config.height)
    return Layer(
        image=image,
        mask=np.zeros_like(image, dtype=bool),
        depth=np.full(image.shape, _INFINITY, dtype=np.float64),
    )


def merge_layers(base: Layer, *overlays: Layer) -> np.ndarray:
    """Composite overlay layers onto a base frame (§5.1 task 5, "Merging").

    Overlays are applied in order; each overlay's covered pixels replace the
    result so far.  This mirrors Coterie's merge of decoded far BE with the
    locally rendered near BE and FI.
    """
    out = base.image.copy()
    for overlay in overlays:
        if overlay.image.shape != out.shape:
            raise ValueError("layer shapes differ")
        out[overlay.mask] = overlay.image[overlay.mask]
    return out

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
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from .. import perf
from ..geometry import Vec3, direction_to_angles
from ..world.objects import ObjectArrays, SceneObject
from ..world.scene import Scene
from .framebuffer import cell_noise, clip_frame, fractal_noise, hash01, new_frame, value_noise

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

    if math.isinf(far_clip):
        sky = _sky(config, seed)
        image[: len(sky)] = sky
        mask[: len(sky)] = True

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


@lru_cache(maxsize=16)
def _sky(config: RenderConfig, seed: int) -> np.ndarray:
    """The rows at and above the horizon: an elevation gradient with
    azimuth-anchored clouds.  They depend on the config and the scene's
    ground seed only, not on the eye, so they are computed once per pair
    and shared read-only; callers copy them into their own frame."""
    az, el = _pixel_angles(config)
    el_sky = el[el >= 0.0][:, None]  # a prefix: elevation falls row by row
    cloud = value_noise(
        az[None, :] * 3.0 / TWO_PI * 8.0,
        np.broadcast_to(el_sky * 4.0, (el_sky.shape[0], az.size)),
        seed + 17,
    )
    sky = config.sky_luminance - 0.18 * (el_sky / (math.pi / 2)) + 0.06 * (cloud - 0.5)
    if config.indoor:
        # Indoors the "sky" is a ceiling: flat, darker, no clouds.
        sky = np.full_like(sky, config.sky_luminance * 0.7)
    rows = sky.astype(np.float32)
    rows.setflags(write=False)
    return rows


def draw_objects(
    layer: Layer,
    objects: ObjectArrays,
    eye: Vec3,
    config: RenderConfig,
) -> Layer:
    """Depth-test-draw objects into an existing layer (painter-safe).

    Objects are sorted far to near; each pixel write checks the depth
    buffer so near geometry (including ground already in the layer) wins.
    Objects subtending less than about half a pixel are culled (matching
    what any real renderer's LOD would drop at this resolution).
    """
    if not len(objects):
        return layer
    with perf.timed("raster"):
        return _draw_objects_vector(layer, objects, eye, config)


def _cull_objects(
    objects: ObjectArrays, eye: Vec3, config: RenderConfig
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized visibility cull shared by the draw and its reference.

    Returns per-object distances, angular radii, the indices of the
    surviving objects in far-to-near draw order, and the eye-relative
    centre offsets ``(n, 3)``.  The sort is stable: objects at exactly
    equal distance keep their list order, on every CPU and numpy build.
    """
    min_ang = max(config.min_angular_radius, 0.55 * math.pi / config.height)
    centers = np.column_stack((objects.x, objects.y, objects.z))
    radii = objects.radius
    offsets = centers - np.array([eye.x, eye.y, eye.z])
    dists = np.linalg.norm(offsets, axis=1)
    with np.errstate(invalid="ignore"):
        ang = np.arcsin(np.minimum(1.0, radii / np.maximum(dists, 1e-9)))
    ang = np.where(dists <= radii, math.pi, ang)
    keep = (dists > 1e-6) & (ang >= min_ang)
    order = np.argsort(-dists[keep], kind="stable")
    kept_indices = np.nonzero(keep)[0][order]
    return dists, ang, kept_indices, offsets


def _draw_objects_scalar(
    layer: Layer,
    objects: Sequence[SceneObject],
    eye: Vec3,
    config: RenderConfig,
) -> Layer:
    """Reference implementation: one scanline loop per object, reading
    the objects themselves.

    Not called from ``src``: ``tests/render/test_kernels_golden.py`` holds
    :func:`draw_objects`, fed a scene's arrays, to this, fed the same
    objects as a list, bit for bit, on all nine games.
    """
    az_cols, el_rows = _pixel_angles(config)
    width, height = config.width, config.height
    image, mask, depth = layer.image, layer.mask, layer.depth

    dists, ang, kept_indices, _ = _cull_objects(
        ObjectArrays.from_objects(objects), eye, config
    )

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


def _ragged(counts: np.ndarray, starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Owner and position of each entry of a ragged list: owner ``i`` holds
    ``counts[i]`` entries at positions ``starts[i]``, ``starts[i] + 1``, ..."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) + (starts - np.cumsum(counts) + counts)[owner]


def _draw_objects_vector(
    layer: Layer,
    objects: ObjectArrays,
    eye: Vec3,
    config: RenderConfig,
) -> Layer:
    """One-pass object draw, bit-identical to the scalar reference.

    Three array steps replace the reference's per-object loop; DESIGN §10
    says why each is exact.  **Units**: per-object parameters as array
    math, one unit per (object, non-empty seam segment) in draw order.
    **Pixels**: one ragged list of the units' bounding-box pixels, with a
    separable disk test.  **Resolve**: each pixel takes the unit that the
    reference's far-to-near strict ``dist < depth`` painter leaves there;
    texture, shade and fog run for those winners only.
    """
    az_cols, el_rows = _pixel_angles(config)
    width, height = config.width, config.height
    dists, ang, kept, offsets = _cull_objects(objects, eye, config)
    dx, dy, dz = (offsets[kept, axis].tolist() for axis in range(3))
    az0 = np.array(list(map(math.atan2, dy, dx))) % TWO_PI
    el0 = np.array(list(map(math.atan2, dz, map(math.hypot, dx, dy))))
    ang_r = np.minimum(ang[kept], math.pi / 2 - 1e-3)
    rv = ang_r * height / math.pi
    v0 = (0.5 - el0 / math.pi) * height
    row_lo = np.maximum(0, np.floor(v0 - rv - 1)).astype(np.int64)
    rows = np.minimum(height - 1, np.ceil(v0 + rv + 1)).astype(np.int64) - row_lo + 1
    cos_el = np.maximum(0.15, np.array(list(map(math.cos, el0.tolist()))))
    ru = ang_r / cos_el * width / TWO_PI
    u0 = az0 / TWO_PI * width
    col_lo = np.floor(u0 - ru - 1).astype(np.int64)
    col_hi = np.ceil(u0 + ru + 1).astype(np.int64)
    full = col_hi - col_lo + 1 >= width
    col_lo[full], col_hi[full] = 0, width - 1
    # Seam split: segment 0 runs from col_lo (wrapped) up to the seam,
    # segment 1 from column 0 to col_hi (wrapped).  Since u0 >= 0 gives
    # col_hi >= 1 (and 0 <= v0 <= height gives rows >= 1), the non-empty
    # segments are the reference's, and (object, segment) is its order.
    seg_lo = col_lo % width
    seg_end = seg_lo + col_hi - col_lo + 1
    c0 = np.stack([seg_lo, np.zeros_like(seg_lo)], axis=1).ravel()
    c1 = np.stack([np.minimum(seg_end, width), seg_end - width], axis=1).ravel()
    units = np.flatnonzero(c0 < c1)
    if not units.size:
        return layer
    perf.count("raster.vector.units", units.size)
    unit_obj = units // 2
    c0, cols = c0[units], c1[units] - c0[units]
    rows, row_lo, az0, el0, cos_el, ang_r, rv = (
        a[unit_obj] for a in (rows, row_lo, az0, el0, cos_el, ang_r, rv)
    )
    dist = dists[kept][unit_obj]
    fog = 1.0 - np.array(list(map(math.exp, (-dist / config.fog_distance).tolist())))
    if config.indoor:
        fog *= 0.2
    freq = np.minimum(32.0, np.maximum(1.0, rv / 2.8)) * config.object_texture_freq / 3.0

    # Separable factors, one entry per (unit, row) and per (unit, column).
    # For b >= 0, fl(a + b) >= a: a row or column whose own square exceeds
    # ang_r**2 holds no covered pixel, so only the others are expanded.
    ang_sq = ang_r * ang_r
    row_unit, row = _ragged(rows, row_lo)
    d_el = el_rows[row] - el0[row_unit]
    el_sq = d_el * d_el
    near = el_sq <= ang_sq[row_unit]
    row_unit, row, d_el, el_sq = row_unit[near], row[near], d_el[near], el_sq[near]
    col_unit, col = _ragged(cols, c0)
    daz = ((az_cols[col] - az0[col_unit] + math.pi) % TWO_PI - math.pi) * cos_el[col_unit]
    az_sq = daz * daz
    near = az_sq <= ang_sq[col_unit]
    col_unit, col, daz, az_sq = col_unit[near], col[near], daz[near], az_sq[near]

    # The ragged pixel list: each kept (unit, row) crossed with its unit's
    # kept columns, tested exactly as the reference tests it.
    cols = np.bincount(col_unit, minlength=units.size)
    pix_row, pix_col = _ragged(cols[row_unit], (np.cumsum(cols) - cols)[row_unit])
    flat = row[pix_row] * width + col[pix_col]
    covers = az_sq[pix_col] + el_sq[pix_row] <= ang_sq[row_unit][pix_row]
    covers &= dist[row_unit][pix_row] < layer.depth.ravel()[flat]
    pix_row, pix_col, flat = pix_row[covers], pix_col[covers], flat[covers]

    # Depth resolve: rank units by (distance, draw order); least rank wins.
    rank = np.argsort(np.argsort(dist, kind="stable"))
    pix_rank = rank[row_unit][pix_row]
    best = np.full(width * height, units.size, dtype=np.int64)
    np.minimum.at(best, flat, pix_rank)
    wins = pix_rank == best[flat]
    pix_row, pix_col = pix_row[wins], pix_col[wins]
    win = row_unit[pix_row]
    win_obj = kept[unit_obj][win]

    # View-facing procedural texture, anchored to the object.
    el_frac = d_el / ang_r[row_unit]
    tex = hash01(
        np.floor(daz / ang_r[col_unit] * freq[col_unit] + 11.3).astype(np.int64)[pix_col],
        np.floor(el_frac * freq[row_unit] + 7.7).astype(np.int64)[pix_row],
        objects.texture_seed[win_obj],
    )
    shade = 1.0 + 0.22 * el_frac[pix_row]  # lit from above
    lum = objects.luminance[win_obj] * (1.0 - objects.contrast[win_obj] * (tex - 0.5)) * shade
    value = lum * (1.0 - fog[win]) + config.fog_luminance * fog[win]
    np.clip(value, 0.0, 1.0, out=value)
    at = (row[pix_row], col[pix_col])
    layer.image[at] = value.astype(np.float32)
    layer.depth[at] = dist[win]
    layer.mask[at] = True
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

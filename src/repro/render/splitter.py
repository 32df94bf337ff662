"""Near/far BE split rendering — the paper's key idea (§4.3).

The whole BE of a viewpoint is decomposed by a *cutoff radius* on ground
distance: objects (and ground) within the radius form the **near BE**,
everything beyond it (plus the sky) forms the **far BE**.  Coterie renders
near BE on the phone and prefetches panoramic far-BE frames from the
server; this module renders each piece and merges them back into the
displayed frame.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..geometry import Vec2, Vec3, camera_height
from ..world.objects import ObjectArrays, SceneObject
from ..world.scene import Scene
from .rasterizer import (
    VIEW_LIMIT,
    Layer,
    RenderConfig,
    draw_objects,
    empty_layer,
    merge_layers,
    render_background,
)

_INFINITY = float("inf")


def eye_at(scene: Scene, position: Vec2, eye_height: float = 1.7) -> Vec3:
    """Camera position for a player standing at ``position``.

    Uses the ray-traced foothold + eye height adjustment of §6.
    """
    return Vec3(position.x, position.y, camera_height(scene.terrain, position, eye_height))


def render_whole_be(
    scene: Scene, eye: Vec3, config: RenderConfig
) -> Layer:
    """The undecoupled panoramic BE frame (what Furion prefetches)."""
    layer = render_background(scene, eye, config, near_clip=0.0, far_clip=_INFINITY)
    objects = scene.object_arrays_within(eye.ground(), VIEW_LIMIT)
    return draw_objects(layer, objects, eye, config)


def render_far_be(
    scene: Scene, eye: Vec3, config: RenderConfig, cutoff_radius: float
) -> Layer:
    """The far BE: sky, ground beyond the cutoff, objects beyond the cutoff.

    This is the frame Coterie's server pre-renders and clients cache; the
    larger the cutoff, the more stable it is under viewpoint displacement.
    """
    if cutoff_radius < 0:
        raise ValueError("cutoff_radius must be non-negative")
    layer = render_background(
        scene, eye, config, near_clip=cutoff_radius, far_clip=_INFINITY
    )
    objects = scene.object_arrays_in_annulus(
        eye.ground(), cutoff_radius, max(VIEW_LIMIT, cutoff_radius)
    )
    return draw_objects(layer, objects, eye, config)


def render_near_be(
    scene: Scene, eye: Vec3, config: RenderConfig, cutoff_radius: float
) -> Layer:
    """The near BE: ground and objects within the cutoff, nothing else.

    Returned as a partial layer (mask marks covered pixels) to composite
    over a far-BE frame.
    """
    if cutoff_radius < 0:
        raise ValueError("cutoff_radius must be non-negative")
    layer = render_background(
        scene, eye, config, near_clip=0.0, far_clip=cutoff_radius
    )
    objects = scene.object_arrays_within(eye.ground(), cutoff_radius)
    return draw_objects(layer, objects, eye, config)


def render_near_and_whole_be(
    scene: Scene, eye: Vec3, config: RenderConfig, cutoff_radius: float
) -> Tuple[Layer, Layer]:
    """``(render_near_be(...), render_whole_be(...))`` of one eye, with the
    ground textured once.

    The near BE's background is the whole background's rows whose ground
    distance is within the cutoff (the same per-row computation; the sky
    and the empty rows have infinite depth), copied before any object is
    drawn; each layer then gets its own objects.  Both layers are
    bit-identical to the separate renders.
    """
    if cutoff_radius < 0:
        raise ValueError("cutoff_radius must be non-negative")
    whole = render_background(scene, eye, config, near_clip=0.0, far_clip=_INFINITY)
    band = whole.depth <= cutoff_radius
    near = Layer(
        image=np.where(band, whole.image, np.float32(0.0)),
        mask=band,
        depth=np.where(band, whole.depth, _INFINITY),
    )
    ground = eye.ground()
    near = draw_objects(near, scene.object_arrays_within(ground, cutoff_radius), eye, config)
    whole = draw_objects(whole, scene.object_arrays_within(ground, VIEW_LIMIT), eye, config)
    return near, whole


def render_fi(
    avatars: Sequence[SceneObject], eye: Vec3, config: RenderConfig
) -> Layer:
    """Foreground interactions: the players' avatars/vehicles as a layer."""
    layer = empty_layer(config)
    return draw_objects(layer, ObjectArrays.from_objects(avatars), eye, config)


def render_display_frame(
    scene: Scene,
    eye: Vec3,
    config: RenderConfig,
    cutoff_radius: float,
    far_be: Optional[Layer] = None,
) -> np.ndarray:
    """The final displayed background: far BE + near BE (§5.1 merging).

    ``far_be`` may be a cached/decoded far-BE layer rendered from a *nearby*
    viewpoint — exactly the reuse Coterie performs; ``None`` renders it
    fresh from ``eye``.
    """
    if far_be is None:
        far_be = render_far_be(scene, eye, config, cutoff_radius)
    near = render_near_be(scene, eye, config, cutoff_radius)
    return merge_layers(far_be, near)


def reference_frame(
    scene: Scene,
    eye: Vec3,
    config: RenderConfig,
    avatars: Sequence[SceneObject] = (),
) -> np.ndarray:
    """Ground-truth frame: everything rendered locally from ``eye``.

    The image-quality baseline of Table 7 ("frames directly generated on
    the client").
    """
    whole = render_whole_be(scene, eye, config)
    fi = render_fi(avatars, eye, config)
    return merge_layers(whole, fi)

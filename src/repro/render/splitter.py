"""Near/far BE split rendering — the paper's key idea (§4.3).

The whole BE of a viewpoint is decomposed by a *cutoff radius* on ground
distance: objects (and ground) within the radius form the **near BE**,
everything beyond it (plus the sky) forms the **far BE**.  Coterie renders
near BE on the phone and prefetches panoramic far-BE frames from the
server; this module renders each piece and merges them back into the
displayed frame.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..geometry import Vec2, Vec3, camera_height
from ..world.objects import ObjectArrays, SceneObject
from ..world.scene import Scene
from .rasterizer import (
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
    objects = scene.object_arrays_within(eye.ground(), config.view_limit)
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
        eye.ground(), cutoff_radius, max(config.view_limit, cutoff_radius)
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
    avatars: Sequence[SceneObject] = (),
    far_be: Optional[Layer] = None,
) -> np.ndarray:
    """The final displayed frame: far BE + near BE + FI (§5.1 merging).

    ``far_be`` may be a cached/decoded far-BE layer rendered from a *nearby*
    viewpoint — exactly the reuse Coterie performs; ``None`` renders it
    fresh from ``eye``.
    """
    if far_be is None:
        far_be = render_far_be(scene, eye, config, cutoff_radius)
    near = render_near_be(scene, eye, config, cutoff_radius)
    fi = render_fi(avatars, eye, config)
    return merge_layers(far_be, near, fi)


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

"""Frame merging helpers (§5.1 task 5).

The renderer's :func:`repro.render.merge_layers` does the compositing; this
module adapts *decoded* far-BE frames (plain luminance arrays coming out of
the codec, which have no mask/depth) into mergeable layers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..render.rasterizer import Layer, merge_layers


def layer_from_decoded(image: np.ndarray) -> Layer:
    """Wrap a decoded far-BE frame as a full-coverage base layer.

    Decoded frames carry no depth information; the near BE and FI layers
    composited on top always win, which matches the hardware path (the
    video frame is a backdrop texture).
    """
    if image.ndim != 2:
        raise ValueError("decoded frame must be a 2D luminance array")
    return Layer(
        image=image.astype(np.float32, copy=False),
        mask=np.ones_like(image, dtype=bool),
        depth=np.full(image.shape, np.inf),
    )


def compose_display(
    far_be: np.ndarray, near_be: Layer, fi: Optional[Layer] = None
) -> np.ndarray:
    """Final displayed frame: decoded far BE + local near BE (+ FI)."""
    base = layer_from_decoded(far_be)
    overlays = [near_be] if fi is None else [near_be, fi]
    return merge_layers(base, *overlays)


def compose_display_into(
    out: np.ndarray, far_be: np.ndarray, near_be: Layer, fi: Optional[Layer]
) -> np.ndarray:
    """:func:`compose_display` into a preallocated float32 buffer.

    The batched online loop composes every player's display frame into
    preallocated buffers; results are bit-identical to
    :func:`compose_display` (same copy-then-masked-overwrite sequence as
    :func:`repro.render.merge_layers`).
    """
    if far_be.ndim != 2:
        raise ValueError("decoded frame must be a 2D luminance array")
    if out.shape != far_be.shape or out.dtype != np.float32:
        raise ValueError("out must be a float32 buffer of the frame shape")
    np.copyto(out, far_be)
    for overlay in (near_be,) if fi is None else (near_be, fi):
        if overlay.image.shape != out.shape:
            raise ValueError("layer shapes differ")
        out[overlay.mask] = overlay.image[overlay.mask]
    return out

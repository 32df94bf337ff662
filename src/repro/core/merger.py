"""Frame merging helpers (§5.1 task 5).

The renderer's :func:`repro.render.merge_layers` does the compositing; this
module adapts *decoded* far-BE frames (plain luminance arrays coming out of
the codec, which have no mask/depth) into mergeable layers and measures the
discontinuity between successive far-BE sources — the quantity behind the
user study (Table 10).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..render.rasterizer import Layer, merge_layers
from ..similarity import ssim


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
    out: np.ndarray, far_be: np.ndarray, near_be: Layer, fi: Optional[Layer] = None
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


def switch_discontinuities(
    far_be_sequence: Sequence[np.ndarray],
) -> List[float]:
    """SSIM at each change of far-BE source along a replay.

    Frame reuse shows the *same* far BE for a run of display frames; the
    perceptible event is the switch to the next fetched frame.  Input is
    the per-display-frame far-BE array (consecutive duplicates allowed by
    identity); output is the SSIM across each identity switch.
    """
    if not far_be_sequence:
        raise ValueError("far_be_sequence must be non-empty")
    values = []
    previous = far_be_sequence[0]
    for current in far_be_sequence[1:]:
        if current is previous:
            continue
        values.append(ssim(previous, current))
        previous = current
    return values

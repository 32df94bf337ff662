"""Block decomposition for the DCT codec.

The codec operates on 8x8 luminance blocks like H.264's baseline intra
path.  Frames whose dimensions are not multiples of 8 are edge-padded
before splitting and cropped after joining.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

BLOCK = 8


def pad_to_blocks(frame: np.ndarray) -> np.ndarray:
    """Edge-pad a 2D frame so both dimensions are multiples of 8."""
    if frame.ndim != 2:
        raise ValueError("expected a 2D luminance frame")
    h, w = frame.shape
    pad_h = (-h) % BLOCK
    pad_w = (-w) % BLOCK
    if pad_h == 0 and pad_w == 0:
        return frame
    return np.pad(frame, ((0, pad_h), (0, pad_w)), mode="edge")


def split_blocks(frame: np.ndarray) -> np.ndarray:
    """(H, W) frame -> (n_blocks_y, n_blocks_x, 8, 8) block tensor."""
    if frame.ndim != 2:
        raise ValueError("expected a 2D luminance frame")
    h, w = frame.shape
    if h % BLOCK or w % BLOCK:
        raise ValueError(f"frame {h}x{w} not block-aligned; pad first")
    return (
        frame.reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK)
        .transpose(0, 2, 1, 3)
        .copy()
    )


def join_blocks_stack(
    blocks: np.ndarray, shape: Tuple[int, int], out: "np.ndarray | None" = None
) -> np.ndarray:
    """Inverse of stacking :func:`split_blocks` per frame, cropping each
    frame to ``shape``.

    ``out`` takes a preallocated ``(N, ny*8, nx*8)`` buffer;
    the returned array is then a cropped view into it.  Per-frame results
    are bit-identical to :func:`join_blocks`.
    """
    if blocks.ndim != 5 or blocks.shape[3:] != (BLOCK, BLOCK):
        raise ValueError("expected an (N, ny, nx, 8, 8) block tensor")
    n, ny, nx = blocks.shape[:3]
    h, w = shape
    if h > ny * BLOCK or w > nx * BLOCK:
        raise ValueError(
            f"target shape {shape} exceeds joined frame "
            f"{(ny * BLOCK, nx * BLOCK)}"
        )
    if out is None:
        out = np.empty((n, ny * BLOCK, nx * BLOCK), dtype=blocks.dtype)
    elif out.shape != (n, ny * BLOCK, nx * BLOCK):
        raise ValueError("out buffer shape mismatch")
    # Writing through the block-shaped strided view of ``out`` joins the
    # blocks without the intermediate copy a transpose+reshape would make.
    np.copyto(
        out.reshape(n, ny, BLOCK, nx, BLOCK).transpose(0, 1, 3, 2, 4), blocks
    )
    return out[:, :h, :w]


def join_blocks(blocks: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`split_blocks`, cropping to ``shape``."""
    if blocks.ndim != 4 or blocks.shape[2:] != (BLOCK, BLOCK):
        raise ValueError("expected an (ny, nx, 8, 8) block tensor")
    ny, nx = blocks.shape[:2]
    frame = blocks.transpose(0, 2, 1, 3).reshape(ny * BLOCK, nx * BLOCK)
    h, w = shape
    if h > frame.shape[0] or w > frame.shape[1]:
        raise ValueError(f"target shape {shape} exceeds joined frame {frame.shape}")
    return frame[:h, :w].copy()

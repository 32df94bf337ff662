"""Frame buffers and deterministic procedural noise.

Frames are plain ``numpy`` arrays of luminance in [0, 1], shape (H, W),
``float32``.  The paper's frames are 4K RGB; we render grayscale at a
configurable resolution and scale sizes to 4K-equivalents in the network
model (see DESIGN.md) — SSIM and DCT-codec behaviour are driven by luma
structure, which we keep.

The noise here is *value noise* built on integer hashing: deterministic,
seedable, vectorized.  Every textured surface in the renderer (ground,
object surfaces, sky) samples it, which is what gives frames enough spatial
structure for SSIM comparisons and realistic codec output (a flat-shaded
frame would compress to nothing and saturate SSIM at 1.0).
"""

from __future__ import annotations

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)


def hash01(ix: np.ndarray, iy: np.ndarray, seed) -> np.ndarray:
    """Deterministic pseudo-random values in [0, 1) from integer lattices.

    A multiply-xorshift mix of the two lattice coordinates and the seed.
    Inputs are broadcast together; any integer dtype is accepted.  ``seed``
    may be a plain integer or a broadcastable integer array (the batched
    rasterizer kernel hashes many objects, each with its own seed, in one
    call) — both forms produce bit-identical values per element.
    """
    x = np.asarray(ix).astype(np.uint64)
    y = np.asarray(iy).astype(np.uint64)
    s = (np.asarray(seed) & 0xFFFFFFFF).astype(np.uint64)
    h = (x * np.uint64(374761393) + y * np.uint64(668265263) + s * np.uint64(2246822519)) & _MASK32
    h = ((h ^ (h >> np.uint64(13))) * np.uint64(1274126177)) & _MASK32
    h = h ^ (h >> np.uint64(16))
    return (h & _MASK32).astype(np.float64) / float(2**32)


def value_noise(x: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
    """Bilinear value noise: smooth, deterministic, in [0, 1).

    ``x``/``y`` are continuous coordinates; one noise cell spans one unit,
    so callers control feature size by scaling their coordinates.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x0 = np.floor(x)
    y0 = np.floor(y)
    fx = x - x0
    fy = y - y0
    # Smoothstep the lattice fractions for C1 continuity.
    sx = fx * fx * (3.0 - 2.0 * fx)
    sy = fy * fy * (3.0 - 2.0 * fy)
    ix = x0.astype(np.int64)
    iy = y0.astype(np.int64)
    v00 = hash01(ix, iy, seed)
    v10 = hash01(ix + 1, iy, seed)
    v01 = hash01(ix, iy + 1, seed)
    v11 = hash01(ix + 1, iy + 1, seed)
    top = v00 + (v10 - v00) * sx
    bottom = v01 + (v11 - v01) * sx
    return top + (bottom - top) * sy


def cell_noise(x: np.ndarray, y: np.ndarray, seed) -> np.ndarray:
    """Nearest-cell (blocky) noise: one hash per sample, in [0, 1).

    Four times cheaper than :func:`value_noise`; used for object surface
    texture where per-cell detail is what matters, not smoothness.  Like
    :func:`hash01`, ``seed`` may be a scalar or a broadcastable array.
    """
    ix = np.floor(np.asarray(x, dtype=np.float64)).astype(np.int64)
    iy = np.floor(np.asarray(y, dtype=np.float64)).astype(np.int64)
    return hash01(ix, iy, seed)


def fractal_noise(
    x: np.ndarray, y: np.ndarray, seed: int, octaves: int = 3
) -> np.ndarray:
    """Sum of value-noise octaves, normalized back into [0, 1)."""
    if octaves < 1:
        raise ValueError("octaves must be >= 1")
    total = np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape, dtype=np.float64)
    amplitude = 1.0
    frequency = 1.0
    norm = 0.0
    for octave in range(octaves):
        total = total + amplitude * value_noise(
            np.asarray(x) * frequency, np.asarray(y) * frequency, seed + octave * 101
        )
        norm += amplitude
        amplitude *= 0.5
        frequency *= 2.0
    return total / norm


def new_frame(width: int, height: int, fill: float = 0.0) -> np.ndarray:
    """Allocate a luminance frame of the given size."""
    if width < 1 or height < 1:
        raise ValueError(f"invalid frame size {width}x{height}")
    if not 0.0 <= fill <= 1.0:
        raise ValueError("fill must be in [0, 1]")
    return np.full((height, width), fill, dtype=np.float32)


def clip_frame(frame: np.ndarray) -> np.ndarray:
    """Clamp a frame into [0, 1] in place and return it."""
    np.clip(frame, 0.0, 1.0, out=frame)
    return frame

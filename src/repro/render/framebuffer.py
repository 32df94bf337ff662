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
_HASH_X = np.uint64(374761393)
_HASH_Y = np.uint64(668265263)


def hash01(ix: np.ndarray, iy: np.ndarray, seed) -> np.ndarray:
    """Deterministic pseudo-random values in [0, 1) from integer lattices.

    A multiply-xorshift mix of the two lattice coordinates and the seed.
    Inputs are broadcast together; any integer dtype is accepted.  ``seed``
    may be a plain integer or a broadcastable integer array (the batched
    rasterizer kernel hashes many objects, each with its own seed, in one
    call) — both forms produce bit-identical values per element.
    """
    return _mix(_lattice(ix, iy, seed))


def _lattice(ix, iy, seed) -> np.ndarray:
    """The hash's linear term ``x·X + y·Y + s·S`` mod 2⁶⁴ (uint64 wraps)."""
    x = np.asarray(ix).astype(np.uint64)
    y = np.asarray(iy).astype(np.uint64)
    s = (np.asarray(seed) & 0xFFFFFFFF).astype(np.uint64)
    return x * _HASH_X + y * _HASH_Y + s * np.uint64(2246822519)


def _mix(h: np.ndarray) -> np.ndarray:
    """Finish :func:`hash01` from its linear term."""
    h = h & _MASK32
    h = ((h ^ (h >> np.uint64(13))) * np.uint64(1274126177)) & _MASK32
    h = h ^ (h >> np.uint64(16))
    return (h & _MASK32).astype(np.float64) / float(2**32)


def value_noise(x: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
    """Bilinear value noise: smooth, deterministic, in [0, 1).

    ``x``/``y`` are continuous coordinates; one noise cell spans one unit,
    so callers control feature size by scaling their coordinates.  The
    four corners hash ``(ix + i, iy + j)``; since the hash's linear term
    is taken mod 2⁶⁴, each corner is the first corner's term plus a
    constant, so the products are computed once.
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
    h00 = _lattice(x0.astype(np.int64), y0.astype(np.int64), seed)
    v00 = _mix(h00)
    v10 = _mix(h00 + _HASH_X)
    v01 = _mix(h00 + _HASH_Y)
    v11 = _mix(h00 + (_HASH_X + _HASH_Y))
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


def new_frame(width: int, height: int) -> np.ndarray:
    """Allocate a black luminance frame of the given size."""
    if width < 1 or height < 1:
        raise ValueError(f"invalid frame size {width}x{height}")
    return np.zeros((height, width), dtype=np.float32)


def clip_frame(frame: np.ndarray) -> np.ndarray:
    """Clamp a frame into [0, 1] in place and return it."""
    np.clip(frame, 0.0, 1.0, out=frame)
    return frame

"""Structural Similarity (SSIM), Wang et al. 2004.

The paper uses SSIM as the *de facto* frame-similarity metric, with 0.90 as
the "good visual quality" threshold (from Kahawai's human-subject study).
Everything that decides whether a cached far-BE frame may be reused — the
dist_thresh binary search, the similarity CDFs of Figs. 1/2/5 — runs
through this implementation.

Standard formulation: luminance/contrast/structure comparisons over a
gaussian-weighted sliding window (sigma 1.5, 11x11 support), stabilised by
C1 = (K1 L)^2 and C2 = (K2 L)^2 with K1=0.01, K2=0.03.

The hot comparison pattern in this codebase is one-vs-many: the dist-thresh
binary search scores a fixed reference frame against a sequence of
displaced candidates.  Five gaussian filters per pair — blur(x), blur(y),
blur(x²), blur(y²), blur(xy) — means two of them (the reference's moments)
are recomputed identically on every probe.  :class:`SsimReference`
precomputes those moments once; :func:`ssim_with` and :func:`ssim_many`
then cost three filters per candidate instead of five, with results
bit-identical to the pairwise :func:`ssim` (same operations on the same
floats, just cached).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.ndimage import correlate1d

from .. import perf

# The reuse threshold from the paper (SSIM > 0.90 => "good" visual quality).
SSIM_GOOD = 0.90

_K1 = 0.01
_K2 = 0.03
_SIGMA = 1.5
# 11-tap support like the reference implementation: truncate at 5 sigma-units.
_TRUNCATE = 5.0 / _SIGMA
# scipy's gaussian kernel radius for (sigma, truncate): int(truncate*sigma+0.5).
_RADIUS = int(_TRUNCATE * _SIGMA + 0.5)


def _gaussian_window() -> np.ndarray:
    """The 1D correlation window ``gaussian_filter`` would build per call.

    Same construction as scipy's ``_gaussian_kernel1d`` (normalised
    gaussian over ``[-radius, radius]``) applied reversed, as
    ``gaussian_filter1d`` passes it to ``correlate1d`` — so blurring with
    this window is bit-identical to the ``gaussian_filter`` call it
    replaces.
    """
    x = np.arange(-_RADIUS, _RADIUS + 1, dtype=np.float64)
    phi = np.exp((-0.5 / (_SIGMA * _SIGMA)) * (x * x))
    phi /= phi.sum()
    window = phi[::-1].copy()
    window.setflags(write=False)
    return window


# Hoisted out of the per-call path: every SSIM evaluation used to rebuild
# this window (and the C1/C2 stabilisers) inside gaussian_filter; the
# scalar oracle path now shares the same precomputed tables.
_WINDOW = _gaussian_window()


@lru_cache(maxsize=32)
def _stab_constants(data_range: float):
    """(C1, C2) stabilisers for a data range, computed once per range."""
    return (_K1 * data_range) ** 2, (_K2 * data_range) ** 2


def _validate_frame(a: np.ndarray) -> None:
    if a.ndim != 2:
        raise ValueError("SSIM operates on 2D luminance frames")
    if a.shape[0] < 4 or a.shape[1] < 4:
        raise ValueError("frames too small for windowed SSIM")


def _validate_pair(a: np.ndarray, b: np.ndarray) -> None:
    _validate_frame(a)
    _validate_frame(b)
    if a.shape != b.shape:
        raise ValueError(f"frame shapes differ: {a.shape} vs {b.shape}")


def _blur(img: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Separable gaussian blur over the last two axes.

    Bit-identical to ``gaussian_filter(img, sigma=_SIGMA,
    truncate=_TRUNCATE)`` on a 2D frame, and — because the correlation
    never mixes values across leading axes — to blurring each frame of an
    ``(N, H, W)`` stack independently.  ``out``/``scratch`` take
    preallocated float64 buffers of ``img``'s shape; they must not alias
    ``img``.
    """
    tmp = correlate1d(img, _WINDOW, axis=-2, mode="reflect", output=scratch)
    return correlate1d(tmp, _WINDOW, axis=-1, mode="reflect", output=out)


@dataclass(frozen=True)
class SsimReference:
    """Precomputed gaussian moments of one frame (the comparison anchor)."""

    image: np.ndarray  # float64 copy of the reference
    mu: np.ndarray
    mu_sq: np.ndarray
    sigma_sq: np.ndarray
    data_range: float
    c1: float
    c2: float

    @property
    def shape(self):
        return self.image.shape


def prepare_reference(a: np.ndarray, data_range: float = 1.0) -> SsimReference:
    """Compute the reference-side moments shared by every comparison."""
    _validate_frame(a)
    if data_range <= 0:
        raise ValueError("data_range must be positive")
    x = a.astype(np.float64)
    mu_x = _blur(x)
    mu_x_sq = mu_x * mu_x
    sigma_x_sq = _blur(x * x) - mu_x_sq
    c1, c2 = _stab_constants(data_range)
    return SsimReference(
        image=x,
        mu=mu_x,
        mu_sq=mu_x_sq,
        sigma_sq=sigma_x_sq,
        data_range=data_range,
        c1=c1,
        c2=c2,
    )


def ssim_map_with(ref: SsimReference, b: np.ndarray) -> np.ndarray:
    """Per-pixel SSIM map of a candidate against a prepared reference."""
    _validate_frame(b)
    if b.shape != ref.shape:
        raise ValueError(f"frame shapes differ: {ref.shape} vs {b.shape}")
    with perf.timed("ssim"):
        y = b.astype(np.float64)
        mu_y = _blur(y)
        mu_y_sq = mu_y * mu_y
        mu_xy = ref.mu * mu_y
        sigma_y_sq = _blur(y * y) - mu_y_sq
        sigma_xy = _blur(ref.image * y) - mu_xy

        numerator = (2.0 * mu_xy + ref.c1) * (2.0 * sigma_xy + ref.c2)
        denominator = (ref.mu_sq + mu_y_sq + ref.c1) * (
            ref.sigma_sq + sigma_y_sq + ref.c2
        )
        return numerator / denominator


def ssim_with(ref: SsimReference, b: np.ndarray) -> float:
    """Mean SSIM of a candidate against a prepared reference."""
    return float(ssim_map_with(ref, b).mean())


@dataclass(frozen=True)
class CandidateMoments:
    """Cached candidate-side gaussian moments for dirty-row SSIM reuse.

    Holds the three blurred maps :func:`ssim_map_with` computes per
    candidate — ``blur(y)``, ``blur(y*y)``, ``blur(x*y)`` — so the next
    candidate in a probe sequence can refresh only the rows its dirty-block
    map touches.  ``xy`` is tied to the reference the moments were built
    against; reuse across references would be wrong, so callers keep one
    cache per :class:`SsimReference`.
    """

    image: np.ndarray  # float64 copy of the candidate
    mu: np.ndarray  # blur(y)
    yy: np.ndarray  # blur(y * y)
    xy: np.ndarray  # blur(ref.image * y)


def _dirty_output_bands(dirty_rows: np.ndarray):
    """Merged ``[lo, hi)`` bands of blur outputs affected by dirty rows.

    A blurred pixel depends on input rows within :data:`_RADIUS`, so each
    dirty input row invalidates a ``2 * _RADIUS + 1`` output band; adjacent
    bands merge.
    """
    h = dirty_rows.size
    kernel = np.ones(2 * _RADIUS + 1, dtype=np.int32)
    dilated = np.convolve(dirty_rows.astype(np.int32), kernel)[_RADIUS : _RADIUS + h] > 0
    edges = np.flatnonzero(
        np.diff(np.concatenate(([0], dilated.astype(np.int8), [0])))
    )
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def ssim_map_update(
    ref: SsimReference,
    b: np.ndarray,
    prev: "CandidateMoments | None" = None,
    dirty_rows: "np.ndarray | None" = None,
):
    """SSIM map plus reusable moments, refreshing only dirty rows.

    Drop-in equivalent of :func:`ssim_map_with` for one-vs-many probe
    sequences whose candidates change incrementally (the dist-thresh
    binary search: sky rows are identical between displaced far-BE
    renders).  ``dirty_rows`` is a per-pixel-row bool mask: rows marked
    clean must be bit-identical between ``prev.image`` and ``b``.
    Gaussian moments are recomputed only inside the dirty bands (padded
    by the blur radius so every refreshed output sees exactly the taps a
    full-frame filter would), and spliced into ``prev``'s maps — the
    returned map is bit-identical to :func:`ssim_map_with`.

    Returns ``(ssim_map, moments)``; pass ``moments`` back as ``prev`` for
    the next candidate.  With ``prev=None`` or ``dirty_rows=None`` the
    full computation runs (and still returns cacheable moments).
    Row-level reuse is counted in :mod:`repro.perf` as
    ``ssim.rows_total`` / ``ssim.rows_reused``.
    """
    _validate_frame(b)
    if b.shape != ref.shape:
        raise ValueError(f"frame shapes differ: {ref.shape} vs {b.shape}")
    with perf.timed("ssim"):
        y = b.astype(np.float64)
        h = y.shape[0]
        dirty = None
        if prev is not None and dirty_rows is not None and prev.image.shape == y.shape:
            dirty = np.asarray(dirty_rows, dtype=bool)
            if dirty.shape != (h,):
                raise ValueError(
                    f"dirty_rows must have shape ({h},), got {dirty.shape}"
                )
        perf.count("ssim.rows_total", h)
        if dirty is None or dirty.all():
            mu_y = _blur(y)
            yy = _blur(y * y)
            xy = _blur(ref.image * y)
        else:
            mu_y = prev.mu.copy()
            yy = prev.yy.copy()
            xy = prev.xy.copy()
            refreshed = 0
            for lo, hi in _dirty_output_bands(dirty):
                # Inputs pad the output band by one more radius; where the
                # pad clips at a frame edge, scipy's reflection there is
                # the true full-frame boundary behaviour.
                in_lo, in_hi = max(0, lo - _RADIUS), min(h, hi + _RADIUS)
                ys = y[in_lo:in_hi]
                xs = ref.image[in_lo:in_hi]
                out = slice(lo - in_lo, hi - in_lo)
                mu_y[lo:hi] = _blur(ys)[out]
                yy[lo:hi] = _blur(ys * ys)[out]
                xy[lo:hi] = _blur(xs * ys)[out]
                refreshed += hi - lo
            perf.count("ssim.rows_reused", h - refreshed)

        mu_y_sq = mu_y * mu_y
        mu_xy = ref.mu * mu_y
        sigma_y_sq = yy - mu_y_sq
        sigma_xy = xy - mu_xy
        numerator = (2.0 * mu_xy + ref.c1) * (2.0 * sigma_xy + ref.c2)
        denominator = (ref.mu_sq + mu_y_sq + ref.c1) * (
            ref.sigma_sq + sigma_y_sq + ref.c2
        )
        moments = CandidateMoments(image=y, mu=mu_y, yy=yy, xy=xy)
        return numerator / denominator, moments


def ssim_with_update(
    ref: SsimReference,
    b: np.ndarray,
    prev: "CandidateMoments | None" = None,
    dirty_rows: "np.ndarray | None" = None,
):
    """Mean-SSIM variant of :func:`ssim_map_update`.

    Returns ``(score, moments)``; the score is bit-identical to
    :func:`ssim_with`.
    """
    ssim_map, moments = ssim_map_update(ref, b, prev=prev, dirty_rows=dirty_rows)
    return float(ssim_map.mean()), moments


def ssim_many(
    a: np.ndarray, candidates, data_range: float = 1.0
) -> np.ndarray:
    """Mean SSIM of ``a`` against each candidate, sharing ``a``'s moments.

    Equivalent to ``[ssim(a, c) for c in candidates]`` but computes the
    reference's gaussian moments once instead of once per pair; the values
    are bit-identical to the pairwise calls.
    """
    ref = prepare_reference(a, data_range)
    return np.array([ssim_with(ref, c) for c in candidates], dtype=np.float64)


def _stack_means(maps: np.ndarray) -> np.ndarray:
    """Per-frame means of a contiguous (N, H, W) stack.

    Bit-identical to ``maps[i].mean()`` per frame: the reduction runs
    over the same contiguous H*W values in the same pairwise-summation
    order.
    """
    return maps.reshape(maps.shape[0], -1).mean(axis=1)


def ssim_many_stacked(ref: SsimReference, candidates: np.ndarray) -> np.ndarray:
    """Mean SSIM of a stacked candidate tile against one prepared reference.

    The multi-candidate batch kernel of the online loop: ``candidates``
    is an ``(N, H, W)`` tile (float32 tiles welcome — frames are promoted
    to float64 exactly as the scalar path promotes each frame), and the
    3N candidate-side gaussian moments — blur(y), blur(y²), blur(x·y) —
    are computed by a *single* pair of separable correlations over one
    ``(3N, H, W)`` float64 stack.  Results are bit-identical to
    ``[ssim_with(ref, c) for c in candidates]``.
    """
    candidates = np.asarray(candidates)
    if candidates.ndim != 3:
        raise ValueError("candidates must be an (N, H, W) stack")
    n = candidates.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if candidates.shape[1:] != ref.shape:
        raise ValueError(
            f"frame shapes differ: {ref.shape} vs {candidates.shape[1:]}"
        )
    h, w = ref.shape
    with perf.timed("ssim"):
        perf.count("ssim.batched_candidates", n)
        stack = np.empty((3 * n, h, w), dtype=np.float64)
        blurred = np.empty_like(stack)
        scratch = np.empty_like(stack)
        y = stack[:n]
        np.copyto(y, candidates)  # the float64 promotion of the scalar path
        np.multiply(y, y, out=stack[n:2 * n])
        np.multiply(ref.image, y, out=stack[2 * n:])
        _blur(stack, out=blurred, scratch=scratch)
        mu_y, yy, xy = blurred[:n], blurred[n:2 * n], blurred[2 * n:]
        # The exact elementwise chain of ssim_map_with, written into the
        # already-consumed input rows (out= does not change the values).
        mu_y_sq = np.multiply(mu_y, mu_y, out=stack[:n])
        mu_xy = np.multiply(ref.mu, mu_y, out=stack[n:2 * n])
        sigma_y_sq = np.subtract(yy, mu_y_sq, out=yy)
        sigma_xy = np.subtract(xy, mu_xy, out=xy)
        t1 = np.multiply(2.0, mu_xy, out=scratch[:n])
        np.add(t1, ref.c1, out=t1)
        t2 = np.multiply(2.0, sigma_xy, out=scratch[n:2 * n])
        np.add(t2, ref.c2, out=t2)
        numerator = np.multiply(t1, t2, out=t1)
        d1 = np.add(ref.mu_sq, mu_y_sq, out=scratch[2 * n:])
        np.add(d1, ref.c1, out=d1)
        d2 = np.add(ref.sigma_sq, sigma_y_sq, out=sigma_y_sq)
        np.add(d2, ref.c2, out=d2)
        denominator = np.multiply(d1, d2, out=d1)
        maps = np.divide(numerator, denominator, out=numerator)
        return _stack_means(maps)


def ssim_pairs(pairs, data_range: float = 1.0) -> np.ndarray:
    """Mean SSIM of K independent (a, b) frame pairs in one tiled pass.

    The cross-player batch kernel: all 5K gaussian moments — blur(x),
    blur(y), blur(x²), blur(y²), blur(x·y) — stack into one
    ``(5K, H, W)`` float64 tile blurred by a single pair of separable
    correlations.  Every value is bit-identical to
    ``[ssim(a, b) for a, b in pairs]``.  All pairs must share one frame
    shape (callers batch homogeneous work: one session's displayed
    frames at one render resolution).
    """
    pairs = list(pairs)
    if not pairs:
        return np.empty(0, dtype=np.float64)
    if data_range <= 0:
        raise ValueError("data_range must be positive")
    shape = None
    for a, b in pairs:
        _validate_pair(a, b)
        if shape is None:
            shape = a.shape
        elif a.shape != shape:
            raise ValueError(
                f"pairs must share one frame shape: {shape} vs {a.shape}"
            )
    k = len(pairs)
    h, w = shape
    c1, c2 = _stab_constants(data_range)
    with perf.timed("ssim"):
        perf.count("ssim.batched_pairs", k)
        stack = np.empty((5 * k, h, w), dtype=np.float64)
        blurred = np.empty_like(stack)
        scratch = np.empty_like(stack)
        xs, ys = stack[:k], stack[k:2 * k]
        for i, (a, b) in enumerate(pairs):
            np.copyto(xs[i], a)  # the float64 promotion of the scalar path
            np.copyto(ys[i], b)
        np.multiply(xs, xs, out=stack[2 * k:3 * k])
        np.multiply(ys, ys, out=stack[3 * k:4 * k])
        np.multiply(xs, ys, out=stack[4 * k:])
        _blur(stack, out=blurred, scratch=scratch)
        mu_x, mu_y = blurred[:k], blurred[k:2 * k]
        bxx = blurred[2 * k:3 * k]
        byy = blurred[3 * k:4 * k]
        bxy = blurred[4 * k:]
        # prepare_reference's chain, then ssim_map_with's, elementwise.
        mu_x_sq = np.multiply(mu_x, mu_x, out=stack[:k])
        mu_y_sq = np.multiply(mu_y, mu_y, out=stack[k:2 * k])
        mu_xy = np.multiply(mu_x, mu_y, out=stack[2 * k:3 * k])
        sigma_x_sq = np.subtract(bxx, mu_x_sq, out=bxx)
        sigma_y_sq = np.subtract(byy, mu_y_sq, out=byy)
        sigma_xy = np.subtract(bxy, mu_xy, out=bxy)
        t1 = np.multiply(2.0, mu_xy, out=scratch[:k])
        np.add(t1, c1, out=t1)
        t2 = np.multiply(2.0, sigma_xy, out=scratch[k:2 * k])
        np.add(t2, c2, out=t2)
        numerator = np.multiply(t1, t2, out=t1)
        d1 = np.add(mu_x_sq, mu_y_sq, out=mu_x_sq)
        np.add(d1, c1, out=d1)
        d2 = np.add(sigma_x_sq, sigma_y_sq, out=sigma_x_sq)
        np.add(d2, c2, out=d2)
        denominator = np.multiply(d1, d2, out=d1)
        maps = np.divide(numerator, denominator, out=numerator)
        return _stack_means(maps)


def ssim_map(
    a: np.ndarray, b: np.ndarray, data_range: float = 1.0
) -> np.ndarray:
    """Per-pixel SSIM index map between two luminance frames."""
    _validate_pair(a, b)
    return ssim_map_with(prepare_reference(a, data_range), b)


def ssim(a: np.ndarray, b: np.ndarray, data_range: float = 1.0) -> float:
    """Mean SSIM between two luminance frames (1.0 = identical)."""
    return float(ssim_map(a, b, data_range).mean())


def is_similar(
    a: np.ndarray, b: np.ndarray, threshold: float = SSIM_GOOD
) -> bool:
    """Whether two frames pass the paper's reuse-quality bar."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    return ssim(a, b) > threshold

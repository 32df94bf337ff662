"""Structural Similarity (SSIM), Wang et al. 2004.

The paper uses SSIM as the *de facto* frame-similarity metric, with 0.90 as
the "good visual quality" threshold (from Kahawai's human-subject study).
Everything that decides whether a cached far-BE frame may be reused — the
dist_thresh binary search, the similarity CDFs of Figs. 1/2/5 — runs
through this implementation.

Standard formulation: luminance/contrast/structure comparisons over a
gaussian-weighted sliding window (sigma 1.5, 11x11 support), stabilised by
C1 = (K1 L)^2 and C2 = (K2 L)^2 with K1=0.01, K2=0.03.

The hot comparison pattern is one-vs-many: the dist-thresh binary search
scores a fixed reference frame against a sequence of displaced
candidates.  Five gaussian filters per pair — blur(x), blur(y),
blur(x²), blur(y²), blur(xy) — means two of them (the reference's
moments) are recomputed identically on every probe.
:class:`SsimReference` precomputes those moments once; :func:`ssim_with`
and :func:`ssim_many` then cost three filters per candidate instead of
five, with results bit-identical to the pairwise :func:`ssim` (same
operations on the same floats, just cached).

The frames compared mostly share rows: a far-BE frame and a displaced
probe, or a displayed frame and its reference, agree pixel for pixel in
the sky and the empty near band.  So :func:`ssim`, :func:`ssim_map`,
:func:`ssim_with` and :func:`ssim_pairs` blur only the rows within the
blur radius of a differing row (``ssim.rows_scored``) and write exactly
1.0 elsewhere, where both sides of the SSIM fraction are equal (DESIGN
§10); the score, the mean over the full map, is bit-identical to
blurring every row.  :func:`ssim_pairs`, the online loop's flush, scores
one pair at a time, so memory stays at a few frames.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# this window inside gaussian_filter; the scalar oracle path now shares the
# same precomputed table.
_WINDOW = _gaussian_window()

#: Output pixels per scored slab: wider bands are scored in pieces, keeping arrays small.
_BAND_PIXELS = 1 << 13

# The C1/C2 stabilisers for frames in [0, 1] (data range 1).
_C1 = _K1**2
_C2 = _K2**2


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


def _blur(img: np.ndarray) -> np.ndarray:
    """Separable gaussian blur over the last two axes.

    Bit-identical to ``gaussian_filter(img, sigma=_SIGMA,
    truncate=_TRUNCATE)`` on a 2D frame, and — because the correlation
    never mixes values across leading axes — to blurring each frame of an
    ``(N, H, W)`` stack independently.
    """
    tmp = correlate1d(img, _WINDOW, axis=-2, mode="reflect")
    return correlate1d(tmp, _WINDOW, axis=-1, mode="reflect")


@dataclass(frozen=True)
class SsimReference:
    """Precomputed gaussian moments of one frame (the comparison anchor)."""

    image: np.ndarray  # float64 copy of the reference
    mu: np.ndarray
    mu_sq: np.ndarray
    sigma_sq: np.ndarray

    @property
    def shape(self):
        return self.image.shape


def prepare_reference(a: np.ndarray) -> SsimReference:
    """Compute the reference-side moments shared by every comparison."""
    _validate_frame(a)
    return _moments(a)


def _moments(a: np.ndarray) -> SsimReference:
    x = a.astype(np.float64)
    mu_x = _blur(x)
    mu_x_sq = mu_x * mu_x
    sigma_x_sq = _blur(x * x) - mu_x_sq
    return SsimReference(image=x, mu=mu_x, mu_sq=mu_x_sq, sigma_sq=sigma_x_sq)


def _ssim_map_of(ref: SsimReference, other: SsimReference) -> np.ndarray:
    """The SSIM map of two frames' moments plus their one cross term.

    A frame's moments are the same whichever side of a pair it is on, so
    this is :func:`ssim_map_with`'s chain with the candidate's side
    precomputed too: the same operations on the same floats.
    """
    mu_xy = ref.mu * other.mu
    sigma_xy = _blur(ref.image * other.image) - mu_xy
    numerator = (2.0 * mu_xy + _C1) * (2.0 * sigma_xy + _C2)
    denominator = (ref.mu_sq + other.mu_sq + _C1) * (
        ref.sigma_sq + other.sigma_sq + _C2
    )
    return numerator / denominator


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


def _ssim_map_rows(a: np.ndarray, b: np.ndarray, ref=None) -> np.ndarray:
    """The SSIM map of two finite frames, blurring only where they differ.

    Each band of :func:`_dirty_output_bands` around the differing rows is
    scored from its input slab, padded by :data:`_RADIUS` and clipped at
    the frame edge, where the slab's reflection is the frame's; so every
    band row sees the taps a full-frame blur gives it.  Every other row
    is exactly 1.0 (DESIGN §10).  ``ref``, if given, holds ``a``'s
    full-frame moments, and only ``b`` is blurred.
    """
    h, w = a.shape
    step = max(1, _BAND_PIXELS // w)
    out = np.ones(a.shape)
    scored = 0
    for band_lo, band_hi in _dirty_output_bands(np.any(a != b, axis=1)):
        for lo in range(band_lo, band_hi, step):
            hi = min(band_hi, lo + step)
            pad = slice(max(0, lo - _RADIUS), min(h, hi + _RADIUS))
            x = _moments(a[pad]) if ref is None else SsimReference(
                *(m[pad] for m in (ref.image, ref.mu, ref.mu_sq, ref.sigma_sq)))
            out[lo:hi] = _ssim_map_of(x, _moments(b[pad]))[lo - pad.start : hi - pad.start]
            scored += hi - lo
    perf.count("ssim.rows_scored", scored)
    return out


def ssim_map_with(ref: SsimReference, b: np.ndarray) -> np.ndarray:
    """Per-pixel SSIM map of a candidate against a prepared reference."""
    _validate_frame(b)
    if b.shape != ref.shape:
        raise ValueError(f"frame shapes differ: {ref.shape} vs {b.shape}")
    with perf.timed("ssim"):
        return _ssim_map_rows(ref.image, b, ref)


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
        numerator = (2.0 * mu_xy + _C1) * (2.0 * sigma_xy + _C2)
        denominator = (ref.mu_sq + mu_y_sq + _C1) * (
            ref.sigma_sq + sigma_y_sq + _C2
        )
        moments = CandidateMoments(image=y, mu=mu_y, yy=yy, xy=xy)
        return numerator / denominator, moments


def ssim_with_update(
    ref: SsimReference,
    b: np.ndarray,
    prev: "CandidateMoments | None",
    dirty_rows: "np.ndarray | None",
):
    """Mean-SSIM variant of :func:`ssim_map_update`.

    Returns ``(score, moments)``; the score is bit-identical to
    :func:`ssim_with`.
    """
    ssim_map, moments = ssim_map_update(ref, b, prev=prev, dirty_rows=dirty_rows)
    return float(ssim_map.mean()), moments


def ssim_many(a: np.ndarray, candidates) -> np.ndarray:
    """Mean SSIM of ``a`` against each candidate, sharing ``a``'s moments.

    Equivalent to ``[ssim(a, c) for c in candidates]`` but computes the
    reference's gaussian moments once instead of once per pair; the values
    are bit-identical to the pairwise calls.
    """
    ref = prepare_reference(a)
    return np.array([ssim_with(ref, c) for c in candidates], dtype=np.float64)


def ssim_many_stacked(ref: SsimReference, candidates: np.ndarray) -> np.ndarray:
    """Mean SSIM of an ``(N, H, W)`` candidate stack against one prepared
    reference, bit-identical to ``[ssim_with(ref, c) for c in candidates]``.

    Candidates are scored one at a time, like :func:`ssim_pairs`, so no
    float64 copy of the stack is built; float32 stacks are welcome (each
    frame is promoted as the scalar path promotes it).
    """
    candidates = np.asarray(candidates)
    if candidates.ndim != 3:
        raise ValueError("candidates must be an (N, H, W) stack")
    if len(candidates) and candidates.shape[1:] != ref.shape:
        raise ValueError(
            f"frame shapes differ: {ref.shape} vs {candidates.shape[1:]}"
        )
    with perf.timed("ssim"):
        perf.count("ssim.batched_candidates", len(candidates))
        return np.array(
            [_ssim_map_of(ref, _moments(c)).mean() for c in candidates],
            dtype=np.float64,
        )


def ssim_pairs(pairs) -> np.ndarray:
    """Mean SSIM of K independent (a, b) frame pairs, one pair at a time.

    The online loop's flush kernel.  Each pair blurs only the rows near
    where its frames differ (:func:`ssim`), so a pair of consecutive
    frames costs a fraction of five full-frame filters.  Pairs may mix
    frame shapes, and no stacked tile is built, so memory stays at a few
    frames.  Every value is bit-identical to
    ``[ssim(a, b) for a, b in pairs]``.
    """
    pairs = list(pairs)
    for a, b in pairs:
        _validate_pair(a, b)
    with perf.timed("ssim"):
        perf.count("ssim.batched_pairs", len(pairs))
        return np.array(
            [_ssim_map_rows(a, b).mean() for a, b in pairs], dtype=np.float64
        )


def ssim_map(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pixel SSIM index map between two luminance frames."""
    _validate_pair(a, b)
    with perf.timed("ssim"):
        return _ssim_map_rows(a, b)


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM between two luminance frames (1.0 = identical)."""
    return float(ssim_map(a, b).mean())

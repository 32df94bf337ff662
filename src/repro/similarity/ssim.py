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

The online loop's deferred scoring is many-vs-many: :func:`ssim_pairs`
scores a flush's independent pairs one at a time, so memory stays at a
few frames, and a frame that comes back within the flush (a far-BE
switch chain scores each frame against its predecessor and its
successor) keeps its moments from the pair that first computed them.
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


def ssim_map_with(ref: SsimReference, b: np.ndarray) -> np.ndarray:
    """Per-pixel SSIM map of a candidate against a prepared reference."""
    _validate_frame(b)
    if b.shape != ref.shape:
        raise ValueError(f"frame shapes differ: {ref.shape} vs {b.shape}")
    with perf.timed("ssim"):
        return _ssim_map_of(ref, _moments(b))


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

    The online loop's flush kernel.  A pair costs five filters: each
    frame's moments, blur(f) and blur(f²), and the cross term blur(a·b).
    A frame object that appears again later in the call (the far-BE
    switch chain A→B, B→C scores B twice) keeps its moments from the pair
    that first computed them until its last pair, and each reuse counts
    as ``ssim.moments_reused``.  Pairs may mix frame shapes, and no
    stacked tile is built, so memory stays at a few frames.  Every value
    is bit-identical to ``[ssim(a, b) for a, b in pairs]``.
    """
    pairs = list(pairs)
    last_seen = {}
    for index, (a, b) in enumerate(pairs):
        _validate_pair(a, b)
        last_seen[id(a)] = last_seen[id(b)] = index
    kept = {}
    reused = 0
    scores = np.empty(len(pairs), dtype=np.float64)
    with perf.timed("ssim"):
        perf.count("ssim.batched_pairs", len(pairs))
        for index, (a, b) in enumerate(pairs):
            frames = (a,) if a is b else (a, b)
            moments = []
            for frame in frames:
                key = id(frame)
                found = kept.pop(key, None)
                if found is None:
                    found = _moments(frame)
                else:
                    reused += 1
                if last_seen[key] > index:
                    kept[key] = found
                moments.append(found)
            scores[index] = _ssim_map_of(moments[0], moments[-1]).mean()
        perf.count("ssim.moments_reused", reused)
    return scores


def ssim_map(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pixel SSIM index map between two luminance frames."""
    _validate_pair(a, b)
    return ssim_map_with(prepare_reference(a), b)


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM between two luminance frames (1.0 = identical)."""
    return float(ssim_map(a, b).mean())

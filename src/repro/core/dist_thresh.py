"""Per-leaf-region distance thresholds for the frame cache (§5.3).

A cached far-BE frame may serve a request from a *different* grid point
only if the two viewpoints are close enough that the frames stay similar
(SSIM > 0.9).  "Close enough" depends on the leaf's cutoff radius — far BE
rendered behind a large cutoff tolerates more displacement — so the paper
derives one ``dist_thresh`` per leaf region offline: for K sampled grid
points, binary-search the displacement (starting from 32 m downwards) at
which the far-BE pair keeps SSIM > 0.9, then take the per-leaf minimum.

Full pre-computation over thousands of leaves is render-heavy, so
:class:`DistThreshMap` computes thresholds lazily per leaf on first visit
and memoizes — identical output for every leaf a player actually enters.
:meth:`DistThreshMap.threshold_at` is the only place a threshold is
looked up or measured (``threshold_for`` descends the cutoff map to a
leaf first): memo, then :func:`leaf_threshold`, a pure function
of (scene, config, leaf key, cutoff, seed, k_samples, eye_height) with its
own RNG stream, so any process measures the same value for a leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .. import perf
from ..geometry import Rect, Vec2
from ..render.rasterizer import RenderConfig
from ..render.splitter import eye_at, render_far_be
from ..similarity import SSIM_GOOD, prepare_reference, ssim_with
from ..world.scene import Scene
from .cutoff import CutoffMap, LeafKey

_SEARCH_START_M = 32.0
#: The search's resolution (m): the smallest threshold it reports.
_RESOLUTION_M = 0.05


def measure_dist_thresh(
    scene: Scene,
    config: RenderConfig,
    point: Vec2,
    cutoff_radius: float,
    rng: np.random.Generator,
    eye_height: float = 1.7,
    threshold: float = SSIM_GOOD,
) -> float:
    """Binary-search the reuse displacement for one grid point.

    Renders the far-BE frame at ``point`` and at candidate displacements in
    a random direction; returns the largest displacement whose pair scores
    above ``threshold``.
    """
    if cutoff_radius < 0:
        raise ValueError("cutoff_radius must be non-negative")
    direction = Vec2.from_angle(float(rng.uniform(0.0, 2.0 * math.pi)))
    base = render_far_be(
        scene, eye_at(scene, point, eye_height), config, cutoff_radius
    ).image
    # Every probe compares against the same base frame: share its moments.
    reference = prepare_reference(base)

    def similar_at(displacement: float) -> bool:
        moved = scene.bounds.clamp(point + direction * displacement)
        frame = render_far_be(
            scene, eye_at(scene, moved, eye_height), config, cutoff_radius
        ).image
        perf.count("dist_thresh.probes")
        return ssim_with(reference, frame) > threshold

    # Halve from the 32 m start until a similar displacement is found.
    hi = _SEARCH_START_M
    while hi > _RESOLUTION_M and not similar_at(hi):
        hi /= 2.0
    if hi <= _RESOLUTION_M:
        return _RESOLUTION_M
    # Refine upward between hi (similar) and 2*hi (dissimilar or start).
    lo, top = hi, min(2.0 * hi, _SEARCH_START_M)
    while top - lo > max(_RESOLUTION_M, 0.1 * lo):
        mid = (lo + top) / 2.0
        if similar_at(mid):
            lo = mid
        else:
            top = mid
    return lo


def leaf_threshold(
    scene: Scene,
    config: RenderConfig,
    key: LeafKey,
    cutoff: float,
    seed: int = 0,
    k_samples: int = 2,
    eye_height: float = 1.7,
) -> float:
    """The dist_thresh of one leaf region — pure in its arguments.

    The RNG is seeded from (seed, leaf key) via Python's numeric tuple hash,
    which is independent of PYTHONHASHSEED, so any process computing this
    leaf draws the identical sample points and probe directions.
    """
    with perf.timed("dist_thresh"):
        region = Rect(*key)
        rng = np.random.default_rng(seed ^ hash(key) & 0x7FFFFFFF)
        thresholds: List[float] = []
        for sample_point in region.sample(rng, k_samples):
            clamped = scene.bounds.clamp(sample_point)
            thresholds.append(
                measure_dist_thresh(
                    scene, config, clamped, cutoff, rng, eye_height=eye_height
                )
            )
        return min(thresholds)


@dataclass
class DistThreshMap:
    """Lazily computed per-leaf distance thresholds."""

    scene: Scene
    config: RenderConfig
    cutoff_map: CutoffMap
    k_samples: int = 2
    seed: int = 0
    eye_height: float = 1.7
    _cache: Dict[LeafKey, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k_samples < 1:
            raise ValueError("k_samples must be >= 1")

    def threshold_for(self, point: Vec2) -> float:
        """The dist_thresh of the leaf region containing ``point``."""
        return self.threshold_at(*self.cutoff_map.leaf_for(point))

    def threshold_at(self, key: LeafKey, cutoff: float) -> float:
        """The dist_thresh of the leaf ``key`` with cutoff ``cutoff``, for
        a caller that already descended the cutoff map to it."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        value = leaf_threshold(
            self.scene,
            self.config,
            key,
            cutoff,
            seed=self.seed,
            k_samples=self.k_samples,
            eye_height=self.eye_height,
        )
        self._cache[key] = value
        return value

    @property
    def computed_leaves(self) -> int:
        return len(self._cache)

"""The adaptive cutoff scheme (§4.3, Table 3, Figs. 6-8).

Customizing a cutoff radius per grid point is infeasible (hundreds of
millions of points); a single global radius wastes budget where the world
is sparse.  The scheme recursively quadtree-partitions the 2D world,
sampling K random locations per region and computing each location's
*maximal* radius satisfying Constraint 1; if the K radii are similar the
region becomes a leaf carrying their minimum, otherwise it splits into four
quadrants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import perf
from ..geometry import BatchPredicate, QuadTree, QuadTreeStats, Rect, Vec2
from ..render.timing import RenderCostModel
from ..world.scene import Scene
from .constraint import RenderBudget

# A region key that identifies a leaf stably across processes/runs.
LeafKey = Tuple[float, float, float, float]


def leaf_key(region: Rect) -> LeafKey:
    """Stable, hashable identifier of a leaf region."""
    return (region.x_min, region.y_min, region.x_max, region.y_max)


@dataclass(frozen=True)
class LeafCutoff:
    """Payload of a quadtree leaf: its region's cutoff radius."""

    cutoff_radius: float
    sampled_radii: Tuple[float, ...]


@dataclass
class CutoffSchemeConfig:
    """Tunables of the adaptive scheme."""

    k_samples: int = 10  # paper's experimentally chosen K (§4.3, Fig. 6)
    agreement_ratio: float = 2.0  # max/min radius ratio considered "similar"
    agreement_abs: float = 0.5  # ... or max-min below this many metres
    max_depth: int = 6
    min_region_m: float = 2.0  # stop splitting below this edge length
    max_radius: float = 180.0  # search ceiling (matches Fig. 7's axis)
    radius_tolerance: float = 0.25  # bisection resolution in metres

    def __post_init__(self) -> None:
        if self.k_samples < 1:
            raise ValueError("k_samples must be >= 1")
        if self.agreement_ratio < 1.0:
            raise ValueError("agreement_ratio must be >= 1")
        if self.max_depth < 0 or self.min_region_m <= 0:
            raise ValueError("invalid depth/region limits")
        if self.max_radius <= 0 or self.radius_tolerance <= 0:
            raise ValueError("invalid radius search parameters")


@dataclass
class CutoffMap:
    """The scheme's output: a quadtree of leaf regions with cutoff radii."""

    tree: QuadTree
    config: CutoffSchemeConfig
    samples_evaluated: int

    def cutoff_for(self, point: Vec2) -> float:
        """Cutoff radius of the leaf region containing ``point``."""
        leaf = self.tree.leaf_for(point)
        assert leaf.payload is not None
        return leaf.payload.cutoff_radius

    def leaf_for(self, point: Vec2) -> Tuple[LeafKey, float]:
        """(stable leaf key, cutoff radius) for cache criterion 2 (§5.3)."""
        leaf = self.tree.leaf_for(point)
        assert leaf.payload is not None
        return leaf_key(leaf.region), leaf.payload.cutoff_radius

    def leaf_radii(self) -> List[float]:
        """All leaf cutoff radii (Fig. 7's CDF input)."""
        return [leaf.payload.cutoff_radius for leaf in self.tree.leaves()]

    def stats(self) -> QuadTreeStats:
        """Quadtree shape summary (Table 3's columns)."""
        return self.tree.stats()

    def modeled_processing_hours(
        self, per_sample_s: float = 0.55, per_area_s: float = 0.0025
    ) -> float:
        """Offline processing-time model for Table 3's "Proc. Time".

        Each sampled location's cutoff calculation is an on-device
        render-time measurement sweep (~``per_sample_s`` each); panoramic
        coverage preparation scales with world area.
        """
        if per_sample_s < 0 or per_area_s < 0:
            raise ValueError("time model coefficients must be non-negative")
        area = self.tree.root.region.area
        return (self.samples_evaluated * per_sample_s + area * per_area_s) / 3600.0


def max_radius_satisfying(
    model: RenderCostModel,
    scene: Scene,
    viewpoint: Vec2,
    budget: RenderBudget,
    max_radius: float,
    tolerance: float = 0.25,
) -> float:
    """Largest cutoff radius at ``viewpoint`` that meets Constraint 1.

    ``near_be_ms`` is monotone non-decreasing in the radius, so bisection
    applies.  Returns 0.0 when even an empty near BE would not fit (cannot
    happen with a sane budget) and ``max_radius`` when the whole
    neighbourhood fits.
    """
    if max_radius <= 0 or tolerance <= 0:
        raise ValueError("max_radius and tolerance must be positive")
    limit = budget.near_be_budget_ms
    if model.near_be_ms(scene, viewpoint, max_radius) < limit:
        return max_radius
    lo, hi = 0.0, max_radius
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if model.near_be_ms(scene, viewpoint, mid) < limit:
            lo = mid
        else:
            hi = mid
    return lo


def exact_max_radius(
    scene: Scene,
    model: RenderCostModel,
    viewpoint: Vec2,
    budget: RenderBudget,
    max_radius: float,
) -> float:
    """Exact maximal radius satisfying Constraint 1, in O(M log M).

    The near-BE cost only changes when the radius crosses an object's
    distance, and each object's LOD weight depends on its own distance, not
    the radius — so sorting objects by distance and prefix-summing their
    weighted costs yields the exact supremum radius in one pass.  The
    answer is capped at ``max_radius``, so only the M objects within it are
    sorted.  Orders of magnitude faster than bisection with repeated
    spatial queries, and used by :func:`build_cutoff_map`.
    """
    return _radius_solver(scene, model, budget, max_radius)([viewpoint])[0]


def _radius_solver(
    scene: Scene, model: RenderCostModel, budget: RenderBudget, max_radius: float
) -> Callable[[Sequence[Vec2]], List[float]]:
    """:func:`exact_max_radius` at several points, the per-scene work done
    once and the points' candidate objects found once."""
    if max_radius <= 0:
        raise ValueError("max_radius must be positive")
    positions, triangles = scene.position_triangle_arrays()
    xs = np.ascontiguousarray(positions[:, 0])
    ys = np.ascontiguousarray(positions[:, 1])
    device = model.device
    limit = budget.near_be_budget_ms
    reach = max_radius + 1.0

    def solve(points: Sequence[Vec2]) -> List[float]:
        # Every object within max_radius of a point lies in the points'
        # bounding box grown by ``reach``.  Kept in insertion order, the
        # box hands each point's sort the array the whole scene would.
        px, py = [p.x for p in points], [p.y for p in points]
        box = np.flatnonzero(
            (xs >= min(px) - reach) & (xs <= max(px) + reach)
            & (ys >= min(py) - reach) & (ys <= max(py) + reach)
        )
        bx, by, btri = xs[box], ys[box], triangles[box]
        return [radius_at(bx, by, btri, p) for p in points]

    def radius_at(bx, by, btri, viewpoint: Vec2) -> float:
        distances = np.hypot(bx - viewpoint.x, by - viewpoint.y)
        # An object beyond max_radius can only bust the budget at a radius
        # the cap below already excludes.
        within = np.flatnonzero(distances <= max_radius)
        order = within[np.argsort(distances[within])]
        sorted_d = distances[order]
        lod = np.maximum(device.lod_floor, 1.0 / (1.0 + (sorted_d / device.lod_distance) ** 2))
        cost_ms = np.cumsum(btri[order] * lod) / device.triangle_throughput
        # First object whose inclusion busts the budget.
        index = int(np.searchsorted(cost_ms, limit, side="left"))
        if index >= len(sorted_d):
            return max_radius
        supremum = float(sorted_d[index])
        if supremum >= max_radius:
            return max_radius
        # Just inside the busting object's distance.
        return max(0.0, supremum - 1e-6)

    return solve


def sample_points(
    rng: np.random.Generator,
    region: Rect,
    k_samples: int,
    reachable: Optional[BatchPredicate],
) -> List[Vec2]:
    """K sample locations in ``region``, biased toward reachable ones.

    Equivalent to drawing candidates one at a time (x then y from ``rng``)
    until ``k_samples`` are reachable or ``8 * k_samples`` were tried, then
    topping up with unconditioned draws — but the whole candidate budget
    is drawn and tested as one batch.  The generator is then rewound and
    advanced past exactly the draws the one-at-a-time loop would have
    made, so the stream continues as if it had run.
    """
    attempts = 8 * k_samples if reachable is not None else 0
    bit_generator = rng.bit_generator
    state = bit_generator.state
    lows = np.tile([region.x_min, region.y_min], attempts + k_samples)
    highs = np.tile([region.x_max, region.y_max], attempts + k_samples)
    draws = rng.uniform(lows, highs)
    xs, ys = draws[0::2], draws[1::2]

    chosen = np.empty(0, dtype=np.intp)
    tried = 0
    if reachable is not None:
        accepted = np.flatnonzero(reachable(xs[:attempts], ys[:attempts]))
        chosen = accepted[:k_samples]
        tried = int(chosen[-1]) + 1 if len(chosen) == k_samples else attempts
    fill = k_samples - len(chosen)
    chosen = np.concatenate([chosen, np.arange(tried, tried + fill)])
    bit_generator.state = state
    bit_generator.advance(2 * (tried + fill))
    return [Vec2(x, y) for x, y in zip(xs[chosen].tolist(), ys[chosen].tolist())]


def build_cutoff_map(
    scene: Scene,
    model: RenderCostModel,
    budget: RenderBudget,
    world: Optional[Rect] = None,
    config: Optional[CutoffSchemeConfig] = None,
    seed: int = 0,
    reachable: Optional[BatchPredicate] = None,
) -> CutoffMap:
    """Run the adaptive cutoff scheme over a game world.

    ``reachable`` — a predicate over coordinate arrays, e.g.
    :meth:`~repro.geometry.WorldGrid.reachable_mask` — biases sampling
    toward locations players can occupy (e.g. the track band); if a region
    has no reachable samples it falls back to uniform samples — its radius
    is then conservative but the region is never visited anyway.
    """
    world = world if world is not None else scene.bounds
    config = config if config is not None else CutoffSchemeConfig()
    rng = np.random.default_rng(seed)
    max_radius_at = _radius_solver(scene, model, budget, config.max_radius)
    counter = {"samples": 0}

    def radii_similar(radii: List[float]) -> bool:
        lo, hi = min(radii), max(radii)
        if hi - lo <= config.agreement_abs:
            return True
        if lo <= 0:
            return False
        return hi / lo <= config.agreement_ratio

    def policy(region: Rect, depth: int) -> Tuple[bool, LeafCutoff]:
        points = sample_points(rng, region, config.k_samples, reachable)
        radii = max_radius_at(points)
        counter["samples"] += len(radii)
        payload = LeafCutoff(
            cutoff_radius=min(radii), sampled_radii=tuple(radii)
        )
        too_small = min(region.width, region.height) / 2.0 < config.min_region_m
        stop = radii_similar(radii) or too_small
        return stop, payload

    with perf.timed("cutoff"):
        tree = QuadTree.build(world, policy, max_depth=config.max_depth)
    perf.count("cutoff.samples", counter["samples"])
    return CutoffMap(tree=tree, config=config, samples_evaluated=counter["samples"])

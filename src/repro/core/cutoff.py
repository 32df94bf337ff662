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
from typing import Callable, List, Optional, Tuple

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


#: Two sampled radii are "similar" when max/min is at most this ratio ...
AGREEMENT_RATIO = 2.0
#: ... or max - min is at most this many metres.
AGREEMENT_ABS = 0.5
#: A region stops splitting below this half-edge length (m).
MIN_REGION_M = 2.0
#: The radius search's ceiling (m); matches Fig. 7's axis.
MAX_RADIUS = 180.0
#: Table 3's processing-time model: an on-device render-time sweep per
#: sampled location (s), plus panoramic coverage per square metre (s).
PROC_S_PER_SAMPLE = 0.55
PROC_S_PER_M2 = 0.0025
#: :func:`max_radius_satisfying` bisects down to this step (m).
BISECTION_STEP_M = 0.05


@dataclass
class CutoffSchemeConfig:
    """Tunables of the adaptive scheme."""

    k_samples: int = 10  # paper's experimentally chosen K (§4.3, Fig. 6)
    max_depth: int = 6

    def __post_init__(self) -> None:
        if self.k_samples < 1:
            raise ValueError("k_samples must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")


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

    def modeled_processing_hours(self) -> float:
        """Offline processing-time model for Table 3's "Proc. Time".

        Each sampled location's cutoff calculation is an on-device
        render-time measurement sweep; panoramic coverage preparation
        scales with world area.
        """
        area = self.tree.root.region.area
        return (self.samples_evaluated * PROC_S_PER_SAMPLE + area * PROC_S_PER_M2) / 3600.0


def max_radius_satisfying(
    model: RenderCostModel,
    scene: Scene,
    viewpoint: Vec2,
    budget: RenderBudget,
    max_radius: float,
) -> float:
    """Largest cutoff radius at ``viewpoint`` that meets Constraint 1,
    to within :data:`BISECTION_STEP_M`.

    ``near_be_ms`` is monotone non-decreasing in the radius, so bisection
    applies.  Returns 0.0 when even an empty near BE would not fit (cannot
    happen with a sane budget) and ``max_radius`` when the whole
    neighbourhood fits.
    """
    if max_radius <= 0:
        raise ValueError("max_radius must be positive")
    limit = budget.near_be_budget_ms
    if model.near_be_ms(scene, viewpoint, max_radius) < limit:
        return max_radius
    lo, hi = 0.0, max_radius
    while hi - lo > BISECTION_STEP_M:
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
    """Exact maximal radius satisfying Constraint 1.

    The near-BE cost only changes when the radius crosses an object's
    distance, and each object's LOD weight depends on its own distance, not
    the radius — so sorting objects by distance and prefix-summing their
    weighted costs yields the exact supremum radius in one pass, one sort
    of the objects within ``max_radius``.  Orders of magnitude faster than
    bisection with repeated spatial queries; a one-point call into the
    solver :func:`build_cutoff_map` uses.
    """
    return _radius_solver(scene, model, budget, max_radius)(
        np.array([viewpoint.x]), np.array([viewpoint.y])
    )[0]


def _radius_solver(
    scene: Scene, model: RenderCostModel, budget: RenderBudget, max_radius: float
) -> Callable[[np.ndarray, np.ndarray], List[float]]:
    """:func:`exact_max_radius` at several points ``(px, py)``, the
    per-scene work done once.

    Each call first searches only the objects within a bound seeded from
    the previous call's largest radius (the quadtree visits neighbouring
    regions in turn); a point whose budget crossing lies beyond the bound
    is searched again out to ``max_radius``.  The sorted objects within
    the bound are a prefix of the sorted objects within ``max_radius``,
    and ``cumsum`` adds in sequence, so the prefix's partial sums — and
    the answer — are the ones a whole-scene search gives.
    """
    if max_radius <= 0:
        raise ValueError("max_radius must be positive")
    positions, triangles = scene.position_triangle_arrays()
    xs = np.ascontiguousarray(positions[:, 0])
    ys = np.ascontiguousarray(positions[:, 1])
    # The objects in x order, so a box's x range is one slice.
    by_x = np.argsort(xs, kind="stable")
    sorted_xs = xs[by_x]
    device = model.device
    limit = budget.near_be_budget_ms
    largest = max_radius  # the previous call's largest radius

    def crossings(px: np.ndarray, py: np.ndarray, bound: float) -> np.ndarray:
        # Each point's first object whose inclusion busts the budget, by
        # distance; inf where no object within ``bound`` does.  Every
        # object within ``bound`` of a point lies in the points' bounding
        # box grown by ``bound + 1`` (the metre covers rounding).
        reach = bound + 1.0
        start = np.searchsorted(sorted_xs, px.min() - reach, side="left")
        stop = np.searchsorted(sorted_xs, px.max() + reach, side="right")
        perf.count("cutoff.box_scanned", int(stop - start))
        slab = by_x[start:stop]
        y_min, y_max = py.min() - reach, py.max() + reach
        # Back in scene order: the columns a whole-scene filter would give.
        box = np.sort(slab[(ys[slab] >= y_min) & (ys[slab] <= y_max)])
        distances = np.hypot(xs[box] - px[:, None], ys[box] - py[:, None])
        # An object beyond the bound sorts last, at inf: a crossing there
        # reads as none.
        distances[distances > bound] = np.inf
        order = np.argsort(distances, axis=1)
        sorted_d = distances[np.arange(len(px))[:, None], order]
        lod = np.maximum(device.lod_floor, 1.0 / (1.0 + (sorted_d / device.lod_distance) ** 2))
        cost_ms = np.cumsum(triangles[box][order] * lod, axis=1) / device.triangle_throughput
        # ``cost_ms`` never decreases, so this is searchsorted(side="left").
        index = (cost_ms < limit).sum(axis=1)
        rows = np.flatnonzero(index < len(box))
        supremum = np.full(len(px), np.inf)
        supremum[rows] = sorted_d[rows, index[rows]]
        return supremum

    def solve(px: np.ndarray, py: np.ndarray) -> List[float]:
        nonlocal largest
        bound = min(2.0 * largest + 2.0, max_radius)
        supremum = crossings(px, py, bound)
        missed = np.flatnonzero(supremum == np.inf)
        if bound < max_radius and len(missed):
            perf.count("cutoff.resolved", len(missed))
            supremum[missed] = crossings(px[missed], py[missed], max_radius)
        # Just inside the busting object's distance, capped at max_radius.
        radii = np.where(
            supremum < max_radius, np.maximum(0.0, supremum - 1e-6), max_radius
        ).tolist()
        largest = max(radii)
        return radii

    return solve


def sample_points(
    rng: np.random.Generator,
    region: Rect,
    k_samples: int,
    reachable: Optional[BatchPredicate],
) -> Tuple[np.ndarray, np.ndarray]:
    """K sample locations ``(xs, ys)`` in ``region``, biased toward
    reachable ones.

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
    # ``uniform(low, high)`` returns ``low + (high - low) * random()``, so
    # one block of ``random`` draws scaled per axis gives its doubles.
    unit = rng.random((attempts + k_samples, 2))
    xs = region.x_min + (region.x_max - region.x_min) * unit[:, 0]
    ys = region.y_min + (region.y_max - region.y_min) * unit[:, 1]

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
    return xs[chosen], ys[chosen]


def build_cutoff_map(
    scene: Scene,
    model: RenderCostModel,
    budget: RenderBudget,
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
    config = config if config is not None else CutoffSchemeConfig()
    rng = np.random.default_rng(seed)
    max_radius_at = _radius_solver(scene, model, budget, MAX_RADIUS)
    counter = {"samples": 0}

    def radii_similar(radii: List[float]) -> bool:
        lo, hi = min(radii), max(radii)
        if hi - lo <= AGREEMENT_ABS:
            return True
        if lo <= 0:
            return False
        return hi / lo <= AGREEMENT_RATIO

    def policy(region: Rect, depth: int) -> Tuple[bool, LeafCutoff]:
        radii = max_radius_at(*sample_points(rng, region, config.k_samples, reachable))
        counter["samples"] += len(radii)
        payload = LeafCutoff(
            cutoff_radius=min(radii), sampled_radii=tuple(radii)
        )
        too_small = min(region.width, region.height) / 2.0 < MIN_REGION_M
        stop = radii_similar(radii) or too_small
        return stop, payload

    with perf.timed("cutoff"):
        tree = QuadTree.build(scene.bounds, policy, max_depth=config.max_depth)
    perf.count("cutoff.samples", counter["samples"])
    return CutoffMap(tree=tree, config=config, samples_evaluated=counter["samples"])

"""Virtual-world grid discretization.

Pre-rendering systems (Furion, Coterie) discretize the continuous virtual
world into a finite lattice of *grid points* so the server only has to
pre-render panoramic frames from those points (§2.2 of the paper).  This
module provides :class:`WorldGrid`, which maps between continuous world
coordinates and grid points, enumerates neighbourhoods for the prefetcher,
and tracks which grid points a player can actually reach (Racing Mountain's
1090x1096 m world has only 7.7 M reachable points because players stay on
the track).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .vec import Vec2

GridPoint = Tuple[int, int]

# A reachability predicate over coordinate arrays: (xs, ys) -> bool array.
BatchPredicate = Callable[[np.ndarray, np.ndarray], np.ndarray]


def batch_predicate(predicate: Callable[[Vec2], bool]) -> BatchPredicate:
    """The ``(xs, ys) -> bool array`` form of a ``Vec2 -> bool`` predicate.

    Masks that evaluate arrays natively expose ``contains_many``; any other
    callable is applied point by point.
    """
    contains_many = getattr(predicate, "contains_many", None)
    if contains_many is not None:
        return contains_many

    def pointwise(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (predicate(Vec2(x, y)) for x, y in zip(xs.tolist(), ys.tolist())),
            dtype=bool,
            count=len(xs),
        )

    return pointwise


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in virtual-world ground coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError(f"degenerate rectangle: {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Vec2:
        return Vec2((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    def contains(self, point: Vec2) -> bool:
        """Half-open containment so adjacent quadrants never both claim a point."""
        return self.x_min <= point.x < self.x_max and self.y_min <= point.y < self.y_max

    def contains_closed(self, point: Vec2) -> bool:
        """Closed-boundary containment (max edges included)."""
        return (
            self.x_min <= point.x <= self.x_max
            and self.y_min <= point.y <= self.y_max
        )

    def clamp(self, point: Vec2) -> Vec2:
        """Nearest point inside the rectangle."""
        return Vec2(
            min(max(point.x, self.x_min), self.x_max),
            min(max(point.y, self.y_min), self.y_max),
        )

    def quadrants(self) -> Tuple["Rect", "Rect", "Rect", "Rect"]:
        """Split into 4 equal sub-rectangles (SW, SE, NW, NE order)."""
        cx, cy = self.center.x, self.center.y
        return (
            Rect(self.x_min, self.y_min, cx, cy),
            Rect(cx, self.y_min, self.x_max, cy),
            Rect(self.x_min, cy, cx, self.y_max),
            Rect(cx, cy, self.x_max, self.y_max),
        )

    def sample_arrays(self, rng, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` uniform random points as ``(xs, ys)`` arrays."""
        xs = rng.uniform(self.x_min, self.x_max, size=count)
        ys = rng.uniform(self.y_min, self.y_max, size=count)
        return xs, ys

    def sample(self, rng, count: int) -> List[Vec2]:
        """Draw ``count`` uniform random points from the rectangle."""
        xs, ys = self.sample_arrays(rng, count)
        return [Vec2(x, y) for x, y in zip(xs.tolist(), ys.tolist())]


class WorldGrid:
    """A uniform lattice over a rectangular virtual world.

    Parameters
    ----------
    bounds:
        The world rectangle in metres.
    pitch:
        Grid spacing in metres.  The paper's worlds have up to ~32 grid
        points per metre (Viking Village: 24.9 M points over 187x130 m).
    reachable:
        Optional predicate ``Vec2 -> bool`` restricting which grid points a
        player can occupy (e.g. a race track mask).  ``None`` means the whole
        world is reachable.
    """

    def __init__(
        self,
        bounds: Rect,
        pitch: float,
        reachable: Optional[Callable[[Vec2], bool]] = None,
    ) -> None:
        if pitch <= 0:
            raise ValueError(f"grid pitch must be positive, got {pitch}")
        self.bounds = bounds
        self.pitch = pitch
        self._reachable = reachable
        self._reachable_many = None if reachable is None else batch_predicate(reachable)
        self.nx = max(1, int(math.floor(bounds.width / pitch)) + 1)
        self.ny = max(1, int(math.floor(bounds.height / pitch)) + 1)

    # ------------------------------------------------------------------
    # Coordinate mapping
    # ------------------------------------------------------------------

    def snap(self, point: Vec2) -> GridPoint:
        """The grid point nearest to a continuous world position."""
        clamped = self.bounds.clamp(point)
        i = int(round((clamped.x - self.bounds.x_min) / self.pitch))
        j = int(round((clamped.y - self.bounds.y_min) / self.pitch))
        return (min(i, self.nx - 1), min(j, self.ny - 1))

    def to_world(self, gp: GridPoint) -> Vec2:
        """World position of a grid point."""
        i, j = gp
        if not self.in_range(gp):
            raise IndexError(f"grid point {gp} outside {self.nx}x{self.ny} grid")
        return Vec2(self.bounds.x_min + i * self.pitch, self.bounds.y_min + j * self.pitch)

    def in_range(self, gp: GridPoint) -> bool:
        """Whether indices fall inside the lattice."""
        i, j = gp
        return 0 <= i < self.nx and 0 <= j < self.ny

    def is_reachable(self, gp: GridPoint) -> bool:
        """Whether a player can occupy this grid point."""
        if not self.in_range(gp):
            return False
        if self._reachable is None:
            return True
        return self._reachable(self.to_world(gp))

    def reachable_mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``is_reachable(snap(p))`` for every world position ``(xs[i], ys[i])``."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if self._reachable_many is None:
            return np.ones(len(xs), dtype=bool)
        b = self.bounds
        i = np.rint((np.clip(xs, b.x_min, b.x_max) - b.x_min) / self.pitch)
        j = np.rint((np.clip(ys, b.y_min, b.y_max) - b.y_min) / self.pitch)
        return self._reachable_many(
            b.x_min + np.minimum(i, self.nx - 1) * self.pitch,
            b.y_min + np.minimum(j, self.ny - 1) * self.pitch,
        )

    # ------------------------------------------------------------------
    # Counting and enumeration
    # ------------------------------------------------------------------

    @property
    def total_points(self) -> int:
        return self.nx * self.ny

    def count_reachable(self, rng, sample_size: int = 4096) -> int:
        """Estimate the reachable grid-point count by uniform sampling.

        Exhaustive enumeration is infeasible for paper-scale grids (268 M
        points for CTS), so this mirrors how we report "grid points" in
        Table 3: ``total_points`` scaled by a sampled reachable fraction.
        """
        if self._reachable_many is None:
            return self.total_points
        hits = int(self._reachable_many(*self.bounds.sample_arrays(rng, sample_size)).sum())
        return int(round(self.total_points * hits / sample_size))

    # ------------------------------------------------------------------
    # Neighbourhoods (used by the prefetcher, Fig. 10)
    # ------------------------------------------------------------------

    def neighbors(self, gp: GridPoint, hops: int = 1) -> List[GridPoint]:
        """Reachable grid points within ``hops`` Chebyshev steps (excl. self)."""
        i, j = gp
        result = []
        for dj in range(-hops, hops + 1):
            for di in range(-hops, hops + 1):
                if di == 0 and dj == 0:
                    continue
                cand = (i + di, j + dj)
                if self.is_reachable(cand):
                    result.append(cand)
        return result

    def points_within(self, center: Vec2, radius: float) -> List[GridPoint]:
        """Reachable grid points within Euclidean ``radius`` of ``center``."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        lo = self.snap(Vec2(center.x - radius, center.y - radius))
        hi = self.snap(Vec2(center.x + radius, center.y + radius))
        result = []
        for j in range(lo[1], hi[1] + 1):
            for i in range(lo[0], hi[0] + 1):
                gp = (i, j)
                if not self.is_reachable(gp):
                    continue
                if self.to_world(gp).distance_to(center) <= radius:
                    result.append(gp)
        return result

    def grid_distance(self, a: GridPoint, b: GridPoint) -> float:
        """Euclidean world-space distance between two grid points."""
        return self.to_world(a).distance_to(self.to_world(b))

"""Reachability masks: where a player can actually stand.

Table 3's grid-point counts are counts of *reachable* locations — Racing
Mountain spans 1090x1096 m but has only 7.7 M grid points because players
stay on the track.  A mask is a predicate ``Vec2 -> bool`` plugged into
:class:`repro.geometry.WorldGrid`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Sequence, Tuple

import numpy as np

from ..geometry import Rect, Vec2

# Relative slack when shortlisting nearest-segment candidates by squared
# distance: far above the rounding error of ``rx*rx + ry*ry`` and of
# ``math.hypot`` (a few 1e-16), so the segment whose ``math.hypot`` is
# smallest is always on the shortlist.
_SHORTLIST_RTOL = 1e-12
# Below this, squared distances have underflowed and no longer order the
# segments: shortlist all of them.
_SHORTLIST_ATOL = 1e-300


@dataclass(frozen=True)
class FullAreaMask:
    """Every point inside the world rectangle is reachable."""

    bounds: Rect

    def __call__(self, point: Vec2) -> bool:
        return self.bounds.contains_closed(point)

    def contains_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Batch form of ``__call__`` over coordinate arrays."""
        b = self.bounds
        return (b.x_min <= xs) & (xs <= b.x_max) & (b.y_min <= ys) & (ys <= b.y_max)


class TrackMask:
    """Reachable band around a closed or open polyline track.

    Used by the racing games: the player (car) can occupy points within
    ``half_width`` metres of the track centreline.  Segment arrays and the
    running arc length are computed once here; every query reuses them.
    """

    def __init__(
        self, waypoints: Sequence[Vec2], half_width: float, closed: bool = True
    ) -> None:
        if len(waypoints) < 2:
            raise ValueError("a track needs at least 2 waypoints")
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        self.waypoints = list(waypoints)
        self.half_width = half_width
        self.closed = closed

        pts = self.waypoints
        self._segments = list(zip(pts, pts[1:] + pts[:1] if closed else pts[1:]))
        self._ax = np.array([a.x for a, _ in self._segments])
        self._ay = np.array([a.y for a, _ in self._segments])
        self._abx = np.array([b.x - a.x for a, b in self._segments])
        self._aby = np.array([b.y - a.y for a, b in self._segments])
        ab_len_sq = self._abx * self._abx + self._aby * self._aby
        # A zero-length segment projects every point onto ``a``: with the
        # divisor swapped for 1 the parameter comes out 0 and ``a + ab*0``
        # is ``a``, with no 0/0.
        self._ab_divisor = np.where(ab_len_sq == 0, 1.0, ab_len_sq)

        self._seg_lengths = [a.distance_to(b) for a, b in self._segments]
        self._length = sum(self._seg_lengths)
        # _arc_ends[i] is the arc length at the end of segment i, summed
        # left to right exactly as a walk along the segments would.
        self._arc_ends = list(accumulate(self._seg_lengths))

    def _residuals(self, px, py) -> Tuple[np.ndarray, np.ndarray]:
        """Offsets from ``(px, py)`` to its nearest point on every segment.

        ``px``/``py`` broadcast against the S segments: scalars give (S,)
        arrays, (N, 1) columns give N x S.  Same operations in the same
        order as projecting one ``Vec2`` onto one segment at a time:
        ``t = clamp(((p - a) . ab) / |ab|^2)``, offset ``p - (a + ab*t)``.
        """
        dx = px - self._ax
        dy = py - self._ay
        t = (dx * self._abx + dy * self._aby) / self._ab_divisor
        t = np.maximum(0.0, np.minimum(1.0, t))
        return px - (self._ax + self._abx * t), py - (self._ay + self._aby * t)

    def distance_to_centerline(self, point: Vec2) -> float:
        """Shortest distance from ``point`` to the track centreline."""
        rx, ry = self._residuals(point.x, point.y)
        return min(map(math.hypot, rx.tolist(), ry.tolist()))

    def distances_to_centerline(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """:meth:`distance_to_centerline` of every ``(xs[i], ys[i])``.

        ``np.hypot`` can differ from ``math.hypot`` in the last bit, so
        squared offsets only shortlist each point's nearest segments and
        ``math.hypot`` over the shortlist gives the distances.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        rx, ry = self._residuals(xs[:, None], ys[:, None])
        sq = rx * rx + ry * ry
        nearest = sq.min(axis=1, keepdims=True)
        rows, cols = np.nonzero(
            sq <= nearest * (1.0 + _SHORTLIST_RTOL) + _SHORTLIST_ATOL
        )
        exact = np.fromiter(
            map(math.hypot, rx[rows, cols].tolist(), ry[rows, cols].tolist()),
            dtype=np.float64,
            count=len(rows),
        )
        # ``rows`` is sorted and holds every point at least once.
        return np.minimum.reduceat(exact, np.searchsorted(rows, np.arange(len(xs))))

    def contains_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Batch form of ``__call__`` over coordinate arrays."""
        return self.distances_to_centerline(xs, ys) <= self.half_width

    def __call__(self, point: Vec2) -> bool:
        return self.distance_to_centerline(point) <= self.half_width

    def length(self) -> float:
        """Total centreline length."""
        return self._length

    def point_at(self, arc: float) -> Vec2:
        """Point at arc-length ``arc`` along the centreline (wraps if closed)."""
        total = self._length
        if total == 0:
            return self.waypoints[0]
        if self.closed:
            arc = arc % total
        else:
            arc = max(0.0, min(arc, total))
        # First non-degenerate segment that ends at or beyond ``arc``.
        index = bisect_left(self._arc_ends, arc)
        while index < len(self._segments) and self._seg_lengths[index] == 0:
            index += 1
        if index == len(self._segments):
            return self.waypoints[0] if self.closed else self.waypoints[-1]
        a, b = self._segments[index]
        travelled = self._arc_ends[index - 1] if index else 0.0
        return a.lerp(b, (arc - travelled) / self._seg_lengths[index])

    def heading_at(self, arc: float) -> float:
        """Track direction (radians) at arc-length ``arc``."""
        eps = max(0.5, self._length * 1e-4)
        ahead = self.point_at(arc + eps)
        here = self.point_at(arc)
        d = ahead - here
        if d.norm() == 0:
            return 0.0
        return d.angle()


@dataclass(frozen=True)
class RoomMask:
    """Reachable interior of an indoor game, inset from the walls."""

    bounds: Rect
    wall_inset: float = 0.5

    def __post_init__(self) -> None:
        if self.wall_inset < 0:
            raise ValueError("wall_inset must be non-negative")

    def __call__(self, point: Vec2) -> bool:
        return (
            self.bounds.x_min + self.wall_inset <= point.x <= self.bounds.x_max - self.wall_inset
            and self.bounds.y_min + self.wall_inset <= point.y <= self.bounds.y_max - self.wall_inset
        )

    def contains_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Batch form of ``__call__`` over coordinate arrays."""
        b, inset = self.bounds, self.wall_inset
        return (
            (b.x_min + inset <= xs)
            & (xs <= b.x_max - inset)
            & (b.y_min + inset <= ys)
            & (ys <= b.y_max - inset)
        )


def oval_track(bounds: Rect, margin: float, waypoint_count: int = 32) -> List[Vec2]:
    """Waypoints of an oval racing track inscribed in the world bounds."""
    if waypoint_count < 3:
        raise ValueError("waypoint_count must be >= 3")
    cx, cy = bounds.center.x, bounds.center.y
    rx = bounds.width / 2 - margin
    ry = bounds.height / 2 - margin
    if rx <= 0 or ry <= 0:
        raise ValueError("margin too large for bounds")
    return [
        Vec2(
            cx + rx * math.cos(2 * math.pi * k / waypoint_count),
            cy + ry * math.sin(2 * math.pi * k / waypoint_count),
        )
        for k in range(waypoint_count)
    ]

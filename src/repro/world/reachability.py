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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import perf
from ..geometry import Rect, Vec2

# Relative slack when shortlisting nearest-segment candidates by squared
# distance: far above the rounding error of ``rx*rx + ry*ry`` and of
# ``math.hypot`` (a few 1e-16), so the segment whose ``math.hypot`` is
# smallest is always on the shortlist.
_SHORTLIST_RTOL = 1e-12
# Below this, squared distances have underflowed and no longer order the
# segments: shortlist all of them.
_SHORTLIST_ATOL = 1e-300
#: Edge of the square cells of :class:`TrackMask`'s coarse index (m).
TRACK_CELL_M = 8.0
# A cell is ruled out only when its centre clears the band by the cell's
# half-diagonal plus this margin (m): orders of magnitude above the
# rounding error of any distance in a world of kilometres.
_FAR_SLACK_M = 1.0
_HALF_DIAGONAL_M = TRACK_CELL_M * math.sqrt(0.5)
# Cell centres the index build measures per pass, to bound its memory.
_BUILD_CHUNK = 4096


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
    """Reachable band around a closed polyline track.

    Used by the racing games: the player (car) can occupy points within
    ``half_width`` metres of the track centreline.  Segment arrays and the
    running arc length are computed once here; every query reuses them.

    Membership (``__call__``, :meth:`contains_many`) first consults a
    coarse index, also built here: a grid of :data:`TRACK_CELL_M` cells over
    the waypoints' bounding box grown by ``half_width`` plus one cell, with
    each cell centre's exact distance to the centreline.  A cell whose
    centre lies farther from the centreline than ``half_width`` plus the
    cell's half-diagonal plus a metre of slack holds no point of the band,
    so a point in such a cell, or outside the grid, is answered ``False``
    without measuring it (:meth:`near_indices`); every other point gets the
    exact distance.  ``__call__`` measures it over the cell's shortlist of
    segments: those whose distance from the cell centre is within two
    half-diagonals plus the slack of the nearest one, which holds every
    point's nearest segment.  The distance queries themselves are always
    exact.
    """

    def __init__(self, waypoints: Sequence[Vec2], half_width: float) -> None:
        if len(waypoints) < 2:
            raise ValueError("a track needs at least 2 waypoints")
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        self.waypoints = list(waypoints)
        self.half_width = half_width

        pts = self.waypoints
        self._segments = list(zip(pts, pts[1:] + pts[:1]))
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

        # The waypoints' bounding box.
        self._box_x0, self._box_x1 = float(self._ax.min()), float(self._ax.max())
        self._box_y0, self._box_y1 = float(self._ay.min()), float(self._ay.max())
        reach = half_width + TRACK_CELL_M
        self._cell_x0 = self._box_x0 - reach
        self._cell_y0 = self._box_y0 - reach
        nx = math.ceil((self._box_x1 + reach - self._cell_x0) / TRACK_CELL_M)
        ny = math.ceil((self._box_y1 + reach - self._cell_y0) / TRACK_CELL_M)
        cx, cy = np.meshgrid(
            self._cell_x0 + (np.arange(nx) + 0.5) * TRACK_CELL_M,
            self._cell_y0 + (np.arange(ny) + 0.5) * TRACK_CELL_M,
        )
        cx, cy = cx.ravel(), cy.ravel()
        # Python lists of the segment arrays, for the scalar shortlist pass.
        self._segment_rows = list(zip(
            self._ax.tolist(), self._ay.tolist(), self._abx.tolist(),
            self._aby.tolist(), self._ab_divisor.tolist(),
        ))
        distances = []
        # _shortlists[k]: the segments to measure for a point of near cell k.
        self._shortlists = {}
        near_clearance = half_width + _HALF_DIAGONAL_M + _FAR_SLACK_M
        for k in range(0, len(cx), _BUILD_CHUNK):
            rx, ry = self._residuals(cx[k:k + _BUILD_CHUNK, None], cy[k:k + _BUILD_CHUNK, None])
            exact = self._nearest(rx, ry)
            distances.append(exact)
            rows = np.flatnonzero(exact <= near_clearance)
            listed = np.hypot(rx[rows], ry[rows]) <= (
                exact[rows, None] + (2.0 * _HALF_DIAGONAL_M + _FAR_SLACK_M)
            )
            for row, segments in zip(rows.tolist(), listed):
                self._shortlists[k + row] = tuple(np.flatnonzero(segments).tolist())
        # _cell_distance[j, i]: cell (i, j)'s centre's distance to the centreline.
        self._cell_distance = np.concatenate(distances).reshape(ny, nx)

    def _residuals(self, px, py) -> Tuple[np.ndarray, np.ndarray]:
        """Offsets from ``(px, py)`` to its nearest point on every segment.

        ``px``/``py`` broadcast against the S segments: scalars give (S,)
        arrays, (N, 1) columns give N x S.  Same operations in the same
        order as projecting one ``Vec2`` onto one segment at a time:
        ``t = clamp(((p - a) . ab) / |ab|^2)``, offset ``p - (a + ab*t)``.
        Every point measured here, the index build's cell centres included,
        counts toward ``reachability.residual_points``.
        """
        perf.count("reachability.residual_points", np.size(px))
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
        return self._nearest(*self._residuals(xs[:, None], ys[:, None]))

    @staticmethod
    def _nearest(rx: np.ndarray, ry: np.ndarray) -> np.ndarray:
        """Each row's smallest ``math.hypot`` of the N x S residuals."""
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
        return np.minimum.reduceat(exact, np.searchsorted(rows, np.arange(len(rx))))

    def near_indices(self, xs: np.ndarray, ys: np.ndarray, margin: float) -> np.ndarray:
        """Indices of the points that may lie within ``margin`` metres of the
        band, i.e. within ``half_width + margin`` of the centreline: every
        point but those the coarse index places farther.

        A point in a cell is ruled out when the cell centre's distance
        exceeds that reach plus the half-diagonal and the slack.  A point
        outside the grid lies more than ``half_width`` plus a cell from the
        waypoints' bounding box; when the reach comes within the slack of
        that, its distance to the box decides instead.
        """
        fx = (xs - self._cell_x0) / TRACK_CELL_M
        fy = (ys - self._cell_y0) / TRACK_CELL_M
        ny, nx = self._cell_distance.shape
        # ``fx >= 0`` is false for NaN, and truncation is floor from here on.
        in_grid = (fx >= 0) & (fx < nx) & (fy >= 0) & (fy < ny)
        cells = np.flatnonzero(in_grid)
        reach = self.half_width + margin
        near = np.zeros(len(xs), dtype=bool)
        near[cells] = self._cell_distance[
            fy[cells].astype(np.intp), fx[cells].astype(np.intp)
        ] <= reach + _HALF_DIAGONAL_M + _FAR_SLACK_M
        if reach + _FAR_SLACK_M >= self.half_width + TRACK_CELL_M:
            outside = np.flatnonzero(~in_grid)
            gap_x = np.maximum(self._box_x0 - xs[outside], xs[outside] - self._box_x1)
            gap_y = np.maximum(self._box_y0 - ys[outside], ys[outside] - self._box_y1)
            near[outside] = np.hypot(
                np.maximum(gap_x, 0.0), np.maximum(gap_y, 0.0)
            ) <= reach + _FAR_SLACK_M
        return np.flatnonzero(near)

    def contains_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Batch form of ``__call__`` over coordinate arrays."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        near = self.near_indices(xs, ys, 0.0)
        inside = np.zeros(len(xs), dtype=bool)
        if len(near):
            inside[near] = self.distances_to_centerline(xs[near], ys[near]) <= self.half_width
        return inside

    def __call__(self, point: Vec2) -> bool:
        distance = self._near_distance(point)
        return distance is not None and distance <= self.half_width

    def _near_distance(self, point: Vec2) -> Optional[float]:
        """:meth:`distance_to_centerline` of a point in a near cell, measured
        over the cell's segment shortlist; ``None`` for a point the index
        rules out."""
        px, py = point.x, point.y
        fx = (px - self._cell_x0) / TRACK_CELL_M
        fy = (py - self._cell_y0) / TRACK_CELL_M
        ny, nx = self._cell_distance.shape
        if not (0 <= fx < nx and 0 <= fy < ny):
            return None
        shortlist = self._shortlists.get(int(fy) * nx + int(fx))
        if shortlist is None:
            return None
        perf.count("reachability.residual_points")
        # ``_residuals``' operations on Python floats, one segment at a time.
        nearest = math.inf
        for s in shortlist:
            ax, ay, abx, aby, divisor = self._segment_rows[s]
            dx = px - ax
            dy = py - ay
            t = max(0.0, min(1.0, (dx * abx + dy * aby) / divisor))
            nearest = min(nearest, math.hypot(px - (ax + abx * t), py - (ay + aby * t)))
        return nearest

    def length(self) -> float:
        """Total centreline length."""
        return self._length

    def point_at(self, arc: float) -> Vec2:
        """Point at arc-length ``arc`` along the centreline (wraps)."""
        total = self._length
        if total == 0:
            return self.waypoints[0]
        arc = arc % total
        # First non-degenerate segment that ends at or beyond ``arc``.
        index = bisect_left(self._arc_ends, arc)
        while index < len(self._segments) and self._seg_lengths[index] == 0:
            index += 1
        if index == len(self._segments):
            return self.waypoints[0]
        a, b = self._segments[index]
        travelled = self._arc_ends[index - 1] if index else 0.0
        return a.lerp(b, (arc - travelled) / self._seg_lengths[index])

    def heading_at(self, arc: float) -> float:
        """Track direction (radians) at arc-length ``arc``."""
        return self.pose_at(arc)[1]

    def pose_at(self, arc: float) -> Tuple[Vec2, float]:
        """``(point_at(arc), heading_at(arc))``, the point computed once."""
        here = self.point_at(arc)
        return here, self._heading_from(here, arc)

    def _heading_from(self, here: Vec2, arc: float) -> float:
        eps = max(0.5, self._length * 1e-4)
        d = self.point_at(arc + eps) - here
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


#: Waypoints on an :func:`oval_track`.
OVAL_WAYPOINTS = 32


def oval_track(bounds: Rect, margin: float) -> List[Vec2]:
    """The :data:`OVAL_WAYPOINTS` waypoints of an oval racing track
    inscribed in the world bounds."""
    cx, cy = bounds.center.x, bounds.center.y
    rx = bounds.width / 2 - margin
    ry = bounds.height / 2 - margin
    if rx <= 0 or ry <= 0:
        raise ValueError("margin too large for bounds")
    return [
        Vec2(
            cx + rx * math.cos(2 * math.pi * k / OVAL_WAYPOINTS),
            cy + ry * math.sin(2 * math.pi * k / OVAL_WAYPOINTS),
        )
        for k in range(OVAL_WAYPOINTS)
    ]

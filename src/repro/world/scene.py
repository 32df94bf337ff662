"""The Scene: placed objects + terrain + radius queries.

Every higher layer asks the scene the same few questions, always centred on
a viewpoint:

* which objects are within / beyond a cutoff radius (near/far BE split),
  as a list or as the rasterizer's :class:`ObjectArrays`;
* how many triangles lie within a radius (Constraint 1 cost input);
* what is the set of near-object ids (frame-cache criterion 3).

The objects are kept as flat arrays in uniform-grid cell order, and every
query returns what a cell-by-cell grid walk would, in its order: one
centre's through :meth:`Scene.disc`, many centres' at once through the
disc kernel :meth:`Scene.discs`, which the frame loop asks for a trajectory
chunk's near sets (DESIGN.md §6).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import perf
from ..geometry import Rect, Vec2
from .objects import ObjectArrays, SceneObject

TerrainFn = Callable[[Vec2], float]

#: Centres x slab objects that one block of the disc kernel holds at most:
#: a chunk whose cell rows hold more objects runs as several blocks, so
#: every array of a block stays under 128 KB.
BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class Discs:
    """The hits of one block of :meth:`Scene.discs` centres, each centre's
    in cell order.

    The block's centre ``k``'s objects within ``radii[k]`` of it are
    ``index[bounds[k]:bounds[k + 1]]``, with their ``triangles`` and their
    offsets ``dx``, ``dy`` from the centre.
    """

    radii: np.ndarray
    index: np.ndarray
    triangles: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    bounds: List[int]


@dataclass(frozen=True)
class BePartition:
    """The near/far split of a scene's objects for one viewpoint."""

    viewpoint: Vec2
    cutoff_radius: float
    near: Tuple[SceneObject, ...]
    far: Tuple[SceneObject, ...]

    @property
    def near_ids(self) -> FrozenSet[int]:
        """Identity of the near set; cache lookups compare these (§5.3)."""
        return frozenset(obj.object_id for obj in self.near)


class Scene:
    """An immutable collection of scene objects with radius queries over
    arrays in cell order: cell row ``j``, then column ``i``, then insertion."""

    def __init__(
        self,
        bounds: Rect,
        objects: Iterable[SceneObject],
        terrain: TerrainFn,
        cell_size: float = 16.0,
        ground_seed: int = 0,
    ) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.bounds = bounds
        self.terrain = terrain
        self.cell_size = cell_size
        # Seed for the procedural ground/sky textures so different games
        # do not share one terrain skin.
        self.ground_seed = ground_seed
        self._objects: List[SceneObject] = list(objects)
        ids = [obj.object_id for obj in self._objects]
        if len(set(ids)) != len(ids):
            raise ValueError("scene objects must have unique ids")
        x = np.array([obj.center.x for obj in self._objects], dtype=np.float64)
        y = np.array([obj.center.y for obj in self._objects], dtype=np.float64)
        triangles = np.array([obj.triangles for obj in self._objects], dtype=np.int64)
        self._pos_tri_arrays = (np.column_stack((x, y)), triangles.astype(np.float64))
        cell_i = np.floor(x / cell_size).astype(np.int64)
        cell_j = np.floor(y / cell_size).astype(np.int64)
        order = np.lexsort((np.arange(len(x)), cell_i, cell_j))
        self._ordered = tuple(self._objects[k] for k in order.tolist())
        # The rasterizer's inputs, built once and sliced per draw; the
        # queries read their centre and radius columns.
        self._arrays = ObjectArrays.from_objects(self._ordered)
        self._x, self._y = self._arrays.x, self._arrays.y
        self._radius = self._arrays.radius
        self._cell_i = cell_i[order]
        self._cell_j = cell_j[order]
        self._triangles = triangles[order]
        self._ids = np.array(ids, dtype=np.int64)[order]
        # Cell rows in cell order: rows ``lo..hi`` are the slice between
        # their bisection points.
        self._rows: List[int] = cell_j[order].tolist()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def objects(self) -> List[SceneObject]:
        return list(self._objects)

    def __len__(self) -> int:
        return len(self._objects)

    def total_triangles(self) -> int:
        """Sum of all objects' triangle counts."""
        return sum(obj.triangles for obj in self._objects)

    def position_triangle_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(N, 2) ground positions and (N,) float triangle counts, in
        insertion order, for vectorized consumers (the cutoff search)."""
        return self._pos_tri_arrays

    # ------------------------------------------------------------------
    # Radius queries
    # ------------------------------------------------------------------

    def discs(self, xs: np.ndarray, ys: np.ndarray, radii: np.ndarray) -> Iterator[Discs]:
        """For each centre ``k``, the objects within ``radii[k]`` of
        ``(xs[k], ys[k])``: what ``objects_within`` returns for that disc.
        Yields the centres in order, one block of consecutive centres at a
        time.

        A block's centres share one slab: the cell rows their squares
        span, restricted to the columns they span, with at most
        ``BLOCK_ELEMENTS`` centre-object pairs.  One dense pass over it runs
        the grid walk's test for every pair: ``dx*dx + dy*dy <= r*r`` on
        the walk's floats, and the centre's own cell rectangle, which keeps
        out an object from a row or column only another centre of the
        block spans, or one whose rounded distance passes but whose cell a
        grid walk would never visit."""
        radii = np.asarray(radii, dtype=np.float64)
        if not (radii >= 0).all():
            raise ValueError("radius must be non-negative")
        lo_i, hi_i, lo_j, hi_j = self._cells(xs, ys, radii)
        row_lo, row_hi = lo_j.tolist(), hi_j.tolist()
        r2 = radii * radii
        rows = self._rows
        k0, n = 0, radii.size
        while k0 < n:
            lo, hi, k1 = row_lo[k0], row_hi[k0], k0 + 1
            start, stop = bisect_left(rows, lo), bisect_right(rows, hi)
            while k1 < n:
                lo2, hi2 = min(lo, row_lo[k1]), max(hi, row_hi[k1])
                start2, stop2 = bisect_left(rows, lo2), bisect_right(rows, hi2)
                if (k1 + 1 - k0) * (stop2 - start2) > BLOCK_ELEMENTS:
                    break
                lo, hi, start, stop, k1 = lo2, hi2, start2, stop2, k1 + 1
            perf.count("scene_query.objects_scanned", stop - start)
            block = slice(k0, k1)
            slab_i = self._cell_i[start:stop]
            cols = np.flatnonzero(
                (slab_i >= lo_i[block].min()) & (slab_i <= hi_i[block].max())
            ) + start
            dx = self._x[cols] - xs[block, None]
            dy = self._y[cols] - ys[block, None]
            col_i, col_j = self._cell_i[cols], self._cell_j[cols]
            hits = np.flatnonzero(
                (dx * dx + dy * dy <= r2[block, None])
                & (col_i >= lo_i[block, None]) & (col_i <= hi_i[block, None])
                & (col_j >= lo_j[block, None]) & (col_j <= hi_j[block, None])
            )
            k, j = np.divmod(hits, cols.size)
            index = cols[j]
            yield Discs(
                radii=radii[block],
                index=index,
                triangles=self._triangles[index],
                dx=dx.ravel()[hits],
                dy=dy.ravel()[hits],
                bounds=_bounds(k, k1 - k0),
            )
            k0 = k1

    def _cells(
        self, x: np.ndarray, y: np.ndarray, radii: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each disc's cell rectangle ``(lo_i, hi_i, lo_j, hi_j)``: the
        grid walk's ``floor((center -/+ r) / cell_size)``, kept as floats
        so any magnitude compares exactly."""
        size = self.cell_size
        return (
            np.floor((x - radii) / size),
            np.floor((x + radii) / size),
            np.floor((y - radii) / size),
            np.floor((y + radii) / size),
        )

    def disc(self, center: Vec2, radius: float) -> Discs:
        """:meth:`discs` for the one centre ``center``: the same tests on
        the slice of the rows its square spans, without the block's
        gathers, which would cost a lone query more than its scan."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        size = self.cell_size
        lo_i = float(math.floor((center.x - radius) / size))
        hi_i = float(math.floor((center.x + radius) / size))
        start = bisect_left(self._rows, float(math.floor((center.y - radius) / size)))
        stop = bisect_right(self._rows, float(math.floor((center.y + radius) / size)), start)
        perf.count("scene_query.objects_scanned", stop - start)
        cell_i = self._cell_i[start:stop]
        dx = self._x[start:stop] - center.x
        dy = self._y[start:stop] - center.y
        hits = np.flatnonzero(
            (dx * dx + dy * dy <= radius * radius) & (cell_i >= lo_i) & (cell_i <= hi_i)
        )
        index = hits + start
        return Discs(
            radii=np.array([radius], dtype=np.float64),
            index=index,
            triangles=self._triangles[index],
            dx=dx[hits],
            dy=dy[hits],
            bounds=[0, hits.size],
        )

    def _near_sets(self, hits: Discs, min_radii: np.ndarray) -> List[FrozenSet[int]]:
        """Each centre's :meth:`near_object_ids` set: the ids of its hits
        whose radius is at least ``min_radii[k]``, inserted in cell order —
        a set's iteration order depends on it.  Consecutive centres with
        the same ids in the same order share one set."""
        near, bounds = hits.index, hits.bounds
        keep = self._radius[near] >= np.repeat(min_radii, np.diff(bounds))
        ids = self._ids[near[keep]].tolist()
        kept = np.concatenate(([0], np.cumsum(keep))).take(bounds).tolist()
        sets: List[FrozenSet[int]] = []
        last: Optional[List[int]] = None
        for a, b in zip(kept, kept[1:]):
            part = ids[a:b]
            if part != last:
                last, current = part, frozenset(part)
            sets.append(current)
        return sets

    def objects_within(
        self, center: Vec2, radius: float
    ) -> List[SceneObject]:
        """Objects whose footprint centre is within ``radius`` of ``center``,
        in cell order."""
        return [self._ordered[k] for k in self.disc(center, radius).index.tolist()]

    def object_arrays_within(self, center: Vec2, radius: float) -> ObjectArrays:
        """The rasterizer's arrays of ``objects_within(center, radius)``,
        in that order."""
        return self._arrays.take(self.disc(center, radius).index)

    def objects_in_annulus(
        self, center: Vec2, inner: float, outer: float
    ) -> List[SceneObject]:
        """Objects with ``inner < distance <= outer`` from ``center``.

        The far BE under cutoff ``r`` is the annulus ``(r, view_limit]``.
        """
        return [self._ordered[k] for k in self._annulus(center, inner, outer).tolist()]

    def object_arrays_in_annulus(
        self, center: Vec2, inner: float, outer: float
    ) -> ObjectArrays:
        """The rasterizer's arrays of ``objects_in_annulus(center, inner,
        outer)``, in that order."""
        return self._arrays.take(self._annulus(center, inner, outer))

    def _annulus(self, center: Vec2, inner: float, outer: float) -> np.ndarray:
        if inner < 0 or outer < inner:
            raise ValueError(f"invalid annulus [{inner}, {outer}]")
        hits = self.disc(center, outer)
        return hits.index[hits.dx * hits.dx + hits.dy * hits.dy > inner * inner]

    def triangles_within(self, center: Vec2, radius: float) -> int:
        """Total triangle count within ``radius`` — the object-density
        measure the adaptive cutoff scheme samples (§4.3)."""
        return int(self.disc(center, radius).triangles.sum())

    def triangle_density(self, center: Vec2, probe_radius: float = 10.0) -> float:
        """Triangles per square metre around ``center`` (Fig. 8's x-axis)."""
        if probe_radius <= 0:
            raise ValueError("probe_radius must be positive")
        area = math.pi * probe_radius * probe_radius
        return self.triangles_within(center, probe_radius) / area

    # ------------------------------------------------------------------
    # Near / far BE split
    # ------------------------------------------------------------------

    def partition(self, viewpoint: Vec2, cutoff_radius: float) -> BePartition:
        """Split every object into near BE and far BE around a viewpoint."""
        if cutoff_radius < 0:
            raise ValueError("cutoff_radius must be non-negative")
        near = []
        far = []
        for obj in self._objects:
            if obj.ground_distance_to(viewpoint) <= cutoff_radius:
                near.append(obj)
            else:
                far.append(obj)
        near.sort(key=lambda o: o.object_id)
        far.sort(key=lambda o: o.object_id)
        return BePartition(
            viewpoint=viewpoint,
            cutoff_radius=cutoff_radius,
            near=tuple(near),
            far=tuple(far),
        )

    def near_object_ids(
        self,
        viewpoint: Union[Vec2, Sequence[Vec2]],
        cutoff_radius: Union[float, Sequence[float]],
        min_radius: Union[float, Sequence[float]] = 0.0,
    ) -> Union[FrozenSet[int], List[FrozenSet[int]]]:
        """Ids of the near-BE objects (frame-cache lookup criterion 3).

        ``min_radius`` drops objects too small to matter: an object whose
        bounding radius is far below the cutoff distance subtends a
        sub-pixel angle at the near/far boundary, so its presence in
        neither layer cannot produce a visible missing part.

        Given a sequence of viewpoints, each with its own cutoff and floor,
        returns their sets in order from one kernel call: the frame loop
        asks for a trajectory chunk's so (DESIGN.md §6).  The batch keeps
        this method's name, so a tracer that wraps it sees the chunk's query.
        """
        if isinstance(viewpoint, Vec2):
            if min_radius < 0:
                raise ValueError("min_radius must be non-negative")
            index = self.disc(viewpoint, cutoff_radius).index
            # Inserted in cell order: a set's iteration order depends on it.
            return frozenset(self._ids[index[self._radius[index] >= min_radius]].tolist())
        xs = np.array([point.x for point in viewpoint], dtype=np.float64)
        ys = np.array([point.y for point in viewpoint], dtype=np.float64)
        radii = np.broadcast_to(np.asarray(cutoff_radius, dtype=np.float64), xs.shape)
        min_radii = np.broadcast_to(np.asarray(min_radius, dtype=np.float64), xs.shape)
        if not (min_radii >= 0).all():
            raise ValueError("min_radius must be non-negative")
        sets: List[FrozenSet[int]] = []
        for hits in self.discs(xs, ys, radii):
            sets += self._near_sets(hits, min_radii[len(sets) : len(sets) + hits.radii.size])
        return sets


def _bounds(k: np.ndarray, n: int) -> List[int]:
    """Slice bounds of centres ``0..n-1`` in the sorted centre column ``k``."""
    return np.searchsorted(k, np.arange(n + 1)).tolist()

"""The Scene: placed objects + terrain + radius queries.

Every higher layer asks the scene the same few questions, always centred on
a viewpoint:

* which objects are within / beyond a cutoff radius (near/far BE split);
* how many triangles lie within a radius (Constraint 1 cost input);
* what is the set of near-object ids (frame-cache criterion 3).

Every online frame asks twice, so the objects are kept as flat arrays in
uniform-grid cell order and each query is one numpy mask over them that
returns what a cell-by-cell grid walk would, in its order (DESIGN.md §6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from ..geometry import Rect, Vec2
from .objects import SceneObject

TerrainFn = Callable[[Vec2], float]


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
        self._x, self._y = x[order], y[order]
        self._cell_i, self._cell_j = cell_i[order], cell_j[order]
        self._triangles = triangles[order]
        self._radius = np.array([obj.radius for obj in self._ordered], dtype=np.float64)
        self._ids = np.array(ids, dtype=np.int64)[order]

    def _cell_of(self, point: Vec2) -> Tuple[int, int]:
        return (
            int(math.floor(point.x / self.cell_size)),
            int(math.floor(point.y / self.cell_size)),
        )

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

    def _candidates(
        self, center: Vec2, radius: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell-order positions of the objects within ``radius`` of
        ``center``, and their offsets ``x - center.x``, ``y - center.y``.
        The rectangle term keeps out an object whose rounded distance
        passes but whose cell a grid walk would never visit."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        lo_i, lo_j = self._cell_of(Vec2(center.x - radius, center.y - radius))
        hi_i, hi_j = self._cell_of(Vec2(center.x + radius, center.y + radius))
        dx = self._x - center.x
        dy = self._y - center.y
        inside = (
            (dx * dx + dy * dy <= radius * radius)
            & (self._cell_i >= lo_i) & (self._cell_i <= hi_i)
            & (self._cell_j >= lo_j) & (self._cell_j <= hi_j)
        )
        idx = np.flatnonzero(inside)
        return idx, dx[idx], dy[idx]

    def objects_within(
        self, center: Vec2, radius: float
    ) -> List[SceneObject]:
        """Objects whose footprint centre is within ``radius`` of ``center``,
        in cell order."""
        idx, _, _ = self._candidates(center, radius)
        return [self._ordered[k] for k in idx.tolist()]

    def triangles_and_offsets(
        self, center: Vec2, radius: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Triangle counts and ``x`` / ``y`` offsets from ``center`` of the
        ``objects_within(center, radius)`` objects, in that order — the
        render-cost model's input."""
        idx, dx, dy = self._candidates(center, radius)
        return self._triangles[idx], dx, dy

    def objects_in_annulus(
        self, center: Vec2, inner: float, outer: float
    ) -> List[SceneObject]:
        """Objects with ``inner < distance <= outer`` from ``center``.

        The far BE under cutoff ``r`` is the annulus ``(r, view_limit]``.
        """
        if inner < 0 or outer < inner:
            raise ValueError(f"invalid annulus [{inner}, {outer}]")
        idx, dx, dy = self._candidates(center, outer)
        idx = idx[dx * dx + dy * dy > inner * inner]
        return [self._ordered[k] for k in idx.tolist()]

    def triangles_within(self, center: Vec2, radius: float) -> int:
        """Total triangle count within ``radius`` — the object-density
        measure the adaptive cutoff scheme samples (§4.3)."""
        idx, _, _ = self._candidates(center, radius)
        return int(self._triangles[idx].sum())

    def triangle_density(self, center: Vec2, probe_radius: float = 10.0) -> float:
        """Triangles per square metre around ``center`` (Fig. 8's x-axis)."""
        if probe_radius <= 0:
            raise ValueError("probe_radius must be positive")
        area = math.pi * probe_radius * probe_radius
        return self.triangles_within(center, probe_radius) / area

    # ------------------------------------------------------------------
    # Near / far BE split
    # ------------------------------------------------------------------

    def partition(
        self,
        viewpoint: Vec2,
        cutoff_radius: float,
        view_limit: Optional[float] = None,
    ) -> BePartition:
        """Split objects into near BE and far BE around a viewpoint.

        ``view_limit`` bounds the far set (server render distance); ``None``
        includes every object in the scene beyond the cutoff.
        """
        if cutoff_radius < 0:
            raise ValueError("cutoff_radius must be non-negative")
        near = []
        far = []
        if view_limit is None:
            candidates: Iterable[SceneObject] = self._objects
        else:
            if view_limit < cutoff_radius:
                raise ValueError("view_limit must be >= cutoff_radius")
            candidates = self.objects_within(viewpoint, view_limit)
        for obj in candidates:
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
        viewpoint: Vec2,
        cutoff_radius: float,
        min_radius: float = 0.0,
    ) -> FrozenSet[int]:
        """Ids of the near-BE objects (frame-cache lookup criterion 3).

        ``min_radius`` drops objects too small to matter: an object whose
        bounding radius is far below the cutoff distance subtends a
        sub-pixel angle at the near/far boundary, so its presence in
        neither layer cannot produce a visible missing part.
        """
        if min_radius < 0:
            raise ValueError("min_radius must be non-negative")
        idx, _, _ = self._candidates(viewpoint, cutoff_radius)
        # Inserted in cell order: a set's iteration order depends on it.
        return frozenset(self._ids[idx[self._radius[idx] >= min_radius]].tolist())

"""Scene objects: the placed instances that make up a virtual world.

A :class:`SceneObject` is the unit the whole reproduction revolves around:
the near/far BE split classifies *objects* by distance from the player
(§4.3, with the footnote that an object may be "cut in the middle"), the
cutoff search counts their triangles, and the renderer projects them into
panoramic frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..geometry import Vec2, Vec3
from .materials import ObjectKind


@dataclass(frozen=True)
class SceneObject:
    """An immutable placed object.

    Attributes
    ----------
    object_id:
        Unique id within a scene; stable across runs for a given seed, so
        cache criterion 3 ("same set of near objects", §5.3) can compare
        id sets.
    kind_name:
        Catalog kind this instance was drawn from.
    center:
        Centre of the bounding sphere in world space (z includes terrain
        elevation plus the grounded offset).
    radius:
        Bounding-sphere radius (metres).
    triangles:
        Mesh complexity used by the render-cost model.
    luminance / contrast:
        Shading parameters for the grayscale renderer.
    texture_seed:
        Per-instance seed for the procedural surface texture, so two
        instances of one kind do not look identical.
    """

    object_id: int
    kind_name: str
    center: Vec3
    radius: float
    triangles: int
    luminance: float
    contrast: float
    texture_seed: int

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError(f"object {self.object_id}: radius must be positive")
        if self.triangles <= 0:
            raise ValueError(f"object {self.object_id}: triangles must be positive")

    @property
    def ground_position(self) -> Vec2:
        """Footprint centre on the 2D ground plane."""
        return self.center.ground()

    def ground_distance_to(self, point: Vec2) -> float:
        """2D distance from the object's footprint to a ground point.

        The cutoff radius is defined on the ground plane (players move in
        2D), so near/far classification uses this distance, not the 3D one.
        """
        return self.ground_position.distance_to(point)


@dataclass(frozen=True)
class ObjectArrays:
    """What the rasterizer reads of a list of objects, as parallel arrays:
    bounding-sphere centre ``x`` / ``y`` / ``z`` and ``radius``, and the
    shading inputs ``texture_seed`` / ``luminance`` / ``contrast``.

    A :class:`~repro.world.scene.Scene` holds one set for all its objects
    and hands out index slices of it, so a draw never walks the objects.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    radius: np.ndarray
    texture_seed: np.ndarray
    luminance: np.ndarray
    contrast: np.ndarray

    @classmethod
    def from_objects(cls, objects: Sequence[SceneObject]) -> "ObjectArrays":
        """The arrays of ``objects``, in list order."""
        return cls(
            x=np.array([obj.center.x for obj in objects], dtype=np.float64),
            y=np.array([obj.center.y for obj in objects], dtype=np.float64),
            z=np.array([obj.center.z for obj in objects], dtype=np.float64),
            radius=np.array([obj.radius for obj in objects], dtype=np.float64),
            texture_seed=np.array([obj.texture_seed for obj in objects], dtype=np.int64),
            luminance=np.array([obj.luminance for obj in objects], dtype=np.float64),
            contrast=np.array([obj.contrast for obj in objects], dtype=np.float64),
        )

    def __len__(self) -> int:
        return self.x.size

    def take(self, index: np.ndarray) -> "ObjectArrays":
        """The objects at ``index``, in that order."""
        return ObjectArrays(
            x=self.x[index],
            y=self.y[index],
            z=self.z[index],
            radius=self.radius[index],
            texture_seed=self.texture_seed[index],
            luminance=self.luminance[index],
            contrast=self.contrast[index],
        )


def make_object(
    object_id: int,
    kind: ObjectKind,
    position: Vec2,
    terrain_height: float,
    rng,
) -> SceneObject:
    """Instantiate a kind at a ground position, drawing per-instance values.

    The bounding sphere sits tangent to the terrain for grounded kinds
    (centre at ``terrain_height + radius``).
    """
    # ``rng.uniform(lo, hi)``'s double, without its per-call set-up.
    lo, hi = kind.radius
    radius = lo + (hi - lo) * rng.random()
    triangles = int(rng.integers(kind.triangles[0], kind.triangles[1] + 1))
    z = terrain_height + (radius if kind.grounded else 2.0 * radius)
    luminance = float(
        min(1.0, max(0.0, kind.luminance + rng.normal(0.0, 0.05)))
    )
    return SceneObject(
        object_id=object_id,
        kind_name=kind.name,
        center=Vec3(position.x, position.y, z),
        radius=radius,
        triangles=triangles,
        luminance=luminance,
        contrast=kind.contrast,
        texture_seed=int(rng.integers(0, 2**31 - 1)),
    )

"""Scene objects: the placed instances that make up a virtual world.

A :class:`SceneObject` is the unit the whole reproduction revolves around:
the near/far BE split classifies *objects* by distance from the player
(§4.3, with the footnote that an object may be "cut in the middle"), the
cutoff search counts their triangles, and the renderer projects them into
panoramic frames.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    radius = float(rng.uniform(*kind.radius))
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

"""Geometry substrate: vectors, grids, quadtrees, projections, rays."""

from .grid import BatchPredicate, GridPoint, Rect, WorldGrid, batch_predicate
from .projection import (
    FovSpec,
    angles_to_direction,
    angles_to_pixel,
    angular_displacement,
    angular_radius,
    crop_fov,
    direction_to_angles,
    pixel_to_angles,
)
from .quadtree import QuadNode, QuadTree, QuadTreeStats
from .rays import Ray, camera_height, find_foothold, intersect_sphere, march_heightfield
from .vec import Vec2, Vec3

__all__ = [
    "BatchPredicate",
    "FovSpec",
    "GridPoint",
    "QuadNode",
    "QuadTree",
    "QuadTreeStats",
    "Ray",
    "Rect",
    "Vec2",
    "Vec3",
    "WorldGrid",
    "angles_to_direction",
    "angles_to_pixel",
    "angular_displacement",
    "angular_radius",
    "batch_predicate",
    "camera_height",
    "crop_fov",
    "direction_to_angles",
    "find_foothold",
    "intersect_sphere",
    "march_heightfield",
    "pixel_to_angles",
]

"""Geometry substrate: vectors, grids, quadtrees, projections, rays."""

from .grid import BatchPredicate, GridPoint, Rect, WorldGrid, batch_predicate
from .projection import angular_displacement, angular_radius, direction_to_angles
from .quadtree import QuadNode, QuadTree, QuadTreeStats
from .rays import camera_height, find_foothold
from .vec import Vec2, Vec3

__all__ = [
    "BatchPredicate",
    "GridPoint",
    "QuadNode",
    "QuadTree",
    "QuadTreeStats",
    "Rect",
    "Vec2",
    "Vec3",
    "WorldGrid",
    "angular_displacement",
    "angular_radius",
    "batch_predicate",
    "camera_height",
    "direction_to_angles",
    "find_foothold",
]

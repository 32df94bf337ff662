"""Ray queries against terrain heightfields.

The paper's offline preprocessing module "appl[ies] ray tracing to find the
foothold of the players and then adjust[s] the height of the camera to gain
the same views as the players" (§6).  :func:`find_foothold` is that query:
drop a vertical ray onto the terrain to find where a player stands, and
derive the camera (eye) elevation from it.
"""

from __future__ import annotations

from typing import Callable

from .vec import Vec2, Vec3

HeightField = Callable[[Vec2], float]


def find_foothold(terrain: HeightField, position: Vec2) -> Vec3:
    """Where a player standing at ground position ``position`` rests.

    Equivalent to casting a vertical ray down onto the terrain heightfield;
    for an explicit heightfield the intersection is direct evaluation.
    """
    return Vec3(position.x, position.y, terrain(position))


def camera_height(terrain: HeightField, position: Vec2, eye_height: float) -> float:
    """Camera elevation for a player at ``position``: foothold + eye height.

    ``eye_height`` is the headset height above the foothold (~1.7 m for a
    standing player, lower for a seated racing pose).
    """
    if eye_height < 0:
        raise ValueError("eye_height must be non-negative")
    return find_foothold(terrain, position).z + eye_height

"""Foreground interactions: the content rendered locally every frame.

FI is "triggered by players operating the controller or signals from other
players" (§2.2): avatars/vehicles of all players plus transient action
effects.  For rendering, each player's FI materializes as scene objects at
the players' current positions; for the render-cost model, its triangle
budget is the game's ``fi_triangles``.
"""

from __future__ import annotations

from typing import List, Sequence

from ..geometry import Vec2, Vec3
from ..world.games import GameWorld
from ..world.objects import SceneObject

# Reserved id space so FI objects never collide with scene object ids.
_FI_ID_BASE = 10_000_000


def avatars_at(
    world: GameWorld, positions: Sequence[Vec2], exclude_player: int = -1
) -> List[SceneObject]:
    """FI avatar objects for every player at their current positions.

    ``exclude_player`` omits the local player (you do not see your own
    avatar, only your hands/vehicle cockpit — which is part of the FI
    budget but not of the world geometry).
    """
    is_racing = world.track is not None
    avatars = []
    for player_id, position in enumerate(positions):
        if player_id == exclude_player:
            continue
        radius = 2.0 if is_racing else 0.5
        luminance = 0.72 if is_racing else 0.62
        z = world.terrain(position) + radius
        avatars.append(
            SceneObject(
                object_id=_FI_ID_BASE + player_id,
                kind_name="car" if is_racing else "person",
                center=Vec3(position.x, position.y, z),
                radius=radius,
                triangles=world.spec.fi_triangles // max(1, len(positions)),
                luminance=luminance,
                contrast=0.3,
                texture_seed=9000 + player_id,
            )
        )
    return avatars

"""Virtual-world substrate: objects, terrain, scenes, procedural games."""

from .games import (
    ALL_GAMES,
    GRID_PITCH,
    HEADLINE_GAMES,
    INDOOR_GAMES,
    OUTDOOR_GAMES,
    GameSpec,
    GameWorld,
    PlayerProfile,
    build_game,
    game_spec,
    load_game,
)
from .generator import DensityBlob, DensityField, KindMixture, generate_scene
from .materials import ObjectKind, catalog, kind
from .objects import ObjectArrays, SceneObject, make_object
from .reachability import FullAreaMask, RoomMask, TrackMask, oval_track
from .scene import BePartition, Scene
from .terrain import FlatTerrain, RidgeTerrain, RollingTerrain

__all__ = [
    "ALL_GAMES",
    "BePartition",
    "DensityBlob",
    "DensityField",
    "FlatTerrain",
    "FullAreaMask",
    "GRID_PITCH",
    "GameSpec",
    "GameWorld",
    "HEADLINE_GAMES",
    "INDOOR_GAMES",
    "KindMixture",
    "ObjectArrays",
    "ObjectKind",
    "OUTDOOR_GAMES",
    "PlayerProfile",
    "RidgeTerrain",
    "RollingTerrain",
    "RoomMask",
    "Scene",
    "SceneObject",
    "TrackMask",
    "build_game",
    "load_game",
    "catalog",
    "game_spec",
    "generate_scene",
    "kind",
    "make_object",
    "oval_track",
]

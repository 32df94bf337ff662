"""Player traces: movement, FI avatars, record/replay."""

from .fi import avatars_at
from .movement import (
    FRAME_MS,
    TrackFollower,
    WaypointRoamer,
    generate_party,
    generate_trajectory,
)
from .recorder import (
    load_traces,
    save_traces,
    trajectory_from_dict,
    trajectory_to_dict,
)
from .trajectory import Trajectory, TrajectorySample

__all__ = [
    "FRAME_MS",
    "TrackFollower",
    "Trajectory",
    "TrajectorySample",
    "WaypointRoamer",
    "avatars_at",
    "generate_party",
    "generate_trajectory",
    "load_traces",
    "save_traces",
    "trajectory_from_dict",
    "trajectory_to_dict",
]

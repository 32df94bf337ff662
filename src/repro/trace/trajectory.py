"""Player trajectories: timestamped paths through the virtual world.

Every similarity study in the paper starts from a recorded trajectory
("we record the player trajectory in the virtual world during game play",
§4.1), and the caching experiments replay them (§4.6, §7.4).  A
:class:`Trajectory` is an immutable sequence of timestamped samples with
the grid-point view the experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..geometry import GridPoint, Vec2, WorldGrid


@dataclass(frozen=True)
class TrajectorySample:
    """One observation of a player: time, ground position, heading."""

    t_ms: float
    position: Vec2
    heading: float  # movement direction, radians

    def __post_init__(self) -> None:
        if self.t_ms < 0:
            raise ValueError("t_ms must be non-negative")


class Trajectory:
    """An ordered, time-increasing sequence of samples for one player."""

    def __init__(self, samples: Sequence[TrajectorySample], player_id: int = 0) -> None:
        if not samples:
            raise ValueError("trajectory needs at least one sample")
        times = [s.t_ms for s in samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("samples must be strictly time-increasing")
        self.samples: Tuple[TrajectorySample, ...] = tuple(samples)
        self.player_id = player_id

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index: int) -> TrajectorySample:
        return self.samples[index]

    @property
    def duration_ms(self) -> float:
        return self.samples[-1].t_ms - self.samples[0].t_ms

    def positions(self) -> List[Vec2]:
        """Ground positions of every sample, in order."""
        return [s.position for s in self.samples]

    # ------------------------------------------------------------------
    # Grid views
    # ------------------------------------------------------------------

    def grid_points(self, grid: WorldGrid) -> List[GridPoint]:
        """The grid point under each sample (with repeats)."""
        return [grid.snap(s.position) for s in self.samples]

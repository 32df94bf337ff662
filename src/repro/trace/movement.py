"""Genre-specific player movement models.

Three locomotion styles cover the study's nine games (Table 2):

* racing games — cars follow the track centreline with lateral wander and
  speed variation (:class:`TrackFollower`);
* outdoor roaming/adventure — players walk between random reachable
  waypoints (:class:`WaypointRoamer`);
* multiplayer sessions — follower players shadow a leader with an offset,
  reproducing the close-proximity group movement the paper observes ("in a
  typical car racing game, multiple cars will chase each other closely in
  the same track, and in an adventure game, multiple avatars closely follow
  each other", §4.1) while *never tracing exactly the same path* (the
  observation behind cache Versions 1/2 scoring zero hits, §4.6).

All models are deterministic in their seed.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..geometry import Vec2
from ..world.games import GameWorld
from .trajectory import Trajectory, TrajectorySample

FRAME_MS = 1000.0 / 60.0


class TrackFollower:
    """Car movement along a closed track with wander and speed jitter."""

    def __init__(self, world: GameWorld, seed: int, start_arc: float = 0.0) -> None:
        if world.track is None:
            raise ValueError(f"game {world.name!r} has no track")
        self.world = world
        self.track = world.track
        self.rng = np.random.default_rng(seed)
        self.arc = start_arc
        self.lateral = 0.0
        self._heading = self.track.heading_at(start_arc)

    def step(self, dt_ms: float) -> Vec2:
        """Advance the car by ``dt_ms`` and return its new position."""
        profile = self.world.spec.player
        jitter = 1.0 + profile.speed_jitter * float(self.rng.uniform(-1.0, 1.0))
        self.arc += profile.speed * jitter * dt_ms / 1000.0
        # Lateral wander: bounded random walk across the lane.
        max_lateral = self.world.spec.track_half_width * 0.7
        self.lateral += float(self.rng.normal(0.0, 0.08))
        self.lateral = max(-max_lateral, min(max_lateral, self.lateral))
        center, self._heading = self.track.pose_at(self.arc)
        normal = Vec2.from_angle(self._heading + math.pi / 2)
        return self.world.bounds.clamp(center + normal * self.lateral)

    def heading(self) -> float:
        """Current movement direction along the track."""
        return self._heading


class WaypointRoamer:
    """Walking movement between random reachable waypoints.

    An optional ``leader`` trajectory turns the roamer into a follower:
    its waypoints are sampled near the leader's concurrent position,
    keeping the group close without path-identical movement.
    """

    def __init__(
        self,
        world: GameWorld,
        seed: int,
        start: Optional[Vec2] = None,
        leader: Optional[Trajectory] = None,
        follow_radius: float = 4.0,
    ) -> None:
        if follow_radius <= 0:
            raise ValueError("follow_radius must be positive")
        self.world = world
        self.rng = np.random.default_rng(seed)
        self.position = start if start is not None else world.spawn_points(1)[0]
        self.heading = float(self.rng.uniform(0, 2 * math.pi))
        self.leader = leader
        self.follow_radius = follow_radius
        self._sample_index = 0
        self.target = self._next_target(0.0)

    def _next_target(self, t_ms: float) -> Vec2:
        if self.leader is not None:
            anchor = self._leader_position(t_ms)
            for _ in range(32):
                offset = Vec2.from_angle(
                    float(self.rng.uniform(0, 2 * math.pi)),
                    float(self.rng.uniform(1.0, self.follow_radius)),
                )
                candidate = self.world.bounds.clamp(anchor + offset)
                if self.world.grid.is_reachable(self.world.grid.snap(candidate)):
                    return candidate
            return anchor
        for _ in range(64):
            candidate = self.world.bounds.sample(self.rng, 1)[0]
            if (
                self.world.grid.is_reachable(self.world.grid.snap(candidate))
                and candidate.distance_to(self.position) > 3.0
            ):
                return candidate
        return self.position

    def _leader_position(self, t_ms: float) -> Vec2:
        assert self.leader is not None
        while (
            self._sample_index < len(self.leader) - 1
            and self.leader[self._sample_index].t_ms < t_ms
        ):
            self._sample_index += 1
        return self.leader[self._sample_index].position

    def step(self, dt_ms: float, t_ms: float) -> Vec2:
        """Advance the walker by ``dt_ms`` and return its new position."""
        profile = self.world.spec.player
        to_target = self.target - self.position
        if to_target.norm() < 0.5:
            self.target = self._next_target(t_ms)
            to_target = self.target - self.position
        if to_target.norm() > 1e-9:
            desired = to_target.angle()
            # Turn-rate-limited heading update.
            diff = (desired - self.heading + math.pi) % (2 * math.pi) - math.pi
            max_turn = profile.turn_rate * dt_ms / 1000.0
            self.heading += max(-max_turn, min(max_turn, diff))
        jitter = 1.0 + profile.speed_jitter * float(self.rng.uniform(-1.0, 1.0))
        step_len = profile.speed * jitter * dt_ms / 1000.0
        candidate = self.world.bounds.clamp(
            self.position + Vec2.from_angle(self.heading, step_len)
        )
        if self.world.grid.is_reachable(self.world.grid.snap(candidate)):
            self.position = candidate
        else:
            # Blocked: bounce toward a fresh waypoint next step.
            self.heading += math.pi / 2
            self.target = self._next_target(t_ms)
        return self.position


def generate_trajectory(
    world: GameWorld,
    duration_s: float,
    seed: int,
    player_index: int = 0,
    leader: Optional[Trajectory] = None,
    follow_radius: float = 4.0,
) -> Trajectory:
    """Generate one player's trajectory for ``duration_s`` of game play.

    Racing games use :class:`TrackFollower` (followers start a few metres
    behind the leader on the same track); other games use
    :class:`WaypointRoamer` (followers shadow the leader's position).
    Samples are one display frame apart.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    dt_ms = FRAME_MS
    steps = int(round(duration_s * 1000.0 / dt_ms))
    samples: List[TrajectorySample] = []
    if world.track is not None:
        follower = TrackFollower(
            world, seed=seed, start_arc=-8.0 * player_index
        )
        for k in range(steps):
            position = follower.step(dt_ms)
            samples.append(
                TrajectorySample(t_ms=k * dt_ms, position=position, heading=follower.heading())
            )
    else:
        start = world.spawn_points(max(1, player_index + 1))[player_index]
        roamer = WaypointRoamer(
            world, seed=seed, start=start, leader=leader,
            follow_radius=follow_radius,
        )
        for k in range(steps):
            t = k * dt_ms
            position = roamer.step(dt_ms, t)
            samples.append(
                TrajectorySample(t_ms=t, position=position, heading=roamer.heading)
            )
    return Trajectory(samples, player_id=player_index)


def generate_party(
    world: GameWorld,
    n_players: int,
    duration_s: float,
    seed: int,
    follow_radius: float = 4.0,
) -> List[Trajectory]:
    """Trajectories for a party of ``n_players`` moving in close proximity.

    Player 0 leads; the rest follow (racing followers simply start behind
    on the track).  Seeds are decorrelated per player, so no two players
    ever trace identical paths.
    """
    if n_players < 1:
        raise ValueError("n_players must be >= 1")
    leader = generate_trajectory(world, duration_s, seed=seed, player_index=0)
    party = [leader]
    for index in range(1, n_players):
        party.append(
            generate_trajectory(
                world,
                duration_s,
                seed=seed + 1000 * index,
                player_index=index,
                leader=leader if world.track is None else None,
                follow_radius=follow_radius,
            )
        )
    return party

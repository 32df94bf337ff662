"""Tests for trajectories, movement models, FI avatars, and recording."""

import numpy as np
import pytest

from repro.geometry import Rect, Vec2, WorldGrid
from repro.trace import (
    FRAME_MS,
    Trajectory,
    TrajectorySample,
    avatars_at,
    generate_party,
    generate_trajectory,
    load_traces,
    save_traces,
)
from repro.world import load_game


def simple_trajectory(n=10, spacing=1.0):
    samples = [
        TrajectorySample(t_ms=i * FRAME_MS, position=Vec2(i * spacing, 0.0), heading=0.0)
        for i in range(n)
    ]
    return Trajectory(samples, player_id=3)


def path_length(trajectory):
    positions = trajectory.positions()
    return sum(a.distance_to(b) for a, b in zip(positions, positions[1:]))


class TestTrajectory:
    def test_basic_properties(self):
        t = simple_trajectory(10)
        assert len(t) == 10
        assert t.player_id == 3
        assert t.duration_ms == pytest.approx(9 * FRAME_MS)
        assert path_length(t) == pytest.approx(9.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trajectory([])

    def test_non_increasing_time_rejected(self):
        samples = [
            TrajectorySample(0.0, Vec2(0, 0), 0.0),
            TrajectorySample(0.0, Vec2(1, 0), 0.0),
        ]
        with pytest.raises(ValueError):
            Trajectory(samples)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            TrajectorySample(-1.0, Vec2(0, 0), 0.0)

    def test_grid_points(self):
        t = simple_trajectory(5, spacing=0.4)
        grid = WorldGrid(Rect(0, 0, 10, 10), pitch=1.0)
        gps = t.grid_points(grid)
        # 0, 0.4, 0.8, 1.2, 1.6 -> snaps 0,0,1,1,2
        assert gps == [(0, 0), (0, 0), (1, 0), (1, 0), (2, 0)]


class TestMovement:
    @pytest.fixture(scope="class")
    def viking(self):
        return load_game("viking")

    @pytest.fixture(scope="class")
    def racing(self):
        return load_game("racing")

    def test_walking_speed_realistic(self, viking):
        t = generate_trajectory(viking, duration_s=10, seed=1)
        speed = path_length(t) / 10.0
        profile = viking.spec.player
        assert 0.3 * profile.speed < speed < 1.6 * profile.speed

    def test_stays_reachable(self, viking):
        t = generate_trajectory(viking, duration_s=5, seed=2)
        for s in t.samples:
            assert viking.grid.is_reachable(viking.grid.snap(s.position))

    def test_track_follower_stays_on_track(self, racing):
        t = generate_trajectory(racing, duration_s=10, seed=3)
        for s in t.samples:
            assert racing.track.distance_to_centerline(s.position) <= (
                racing.spec.track_half_width + 1e-6
            )

    def test_car_speed_realistic(self, racing):
        t = generate_trajectory(racing, duration_s=10, seed=4)
        speed = path_length(t) / 10.0
        assert 0.6 * racing.spec.player.speed < speed < 1.5 * racing.spec.player.speed

    def test_deterministic(self, viking):
        a = generate_trajectory(viking, duration_s=3, seed=7)
        b = generate_trajectory(viking, duration_s=3, seed=7)
        assert a.positions() == b.positions()

    def test_different_seeds_differ(self, viking):
        a = generate_trajectory(viking, duration_s=3, seed=7)
        b = generate_trajectory(viking, duration_s=3, seed=8)
        assert a.positions() != b.positions()

    def test_party_proximity(self, viking):
        party = generate_party(viking, 3, duration_s=10, seed=5)
        assert len(party) == 3
        for follower in party[1:]:
            mean_d = np.mean([
                a.position.distance_to(b.position)
                for a, b in zip(party[0].samples, follower.samples)
            ])
            assert mean_d < 15.0  # group stays together

    def test_party_paths_never_identical(self, viking):
        """The §4.6 observation: players never trace the same path."""
        party = generate_party(viking, 2, duration_s=10, seed=6)
        gps_a = set(map(tuple, party[0].grid_points(viking.grid)))
        gps_b = set(map(tuple, party[1].grid_points(viking.grid)))
        overlap = len(gps_a & gps_b) / max(1, len(gps_a))
        assert overlap < 0.2

    def test_racing_party_staggered_start(self, racing):
        party = generate_party(racing, 2, duration_s=5, seed=9)
        start_gap = party[0][0].position.distance_to(party[1][0].position)
        assert 2.0 < start_gap < 20.0

    def test_validation(self, viking):
        with pytest.raises(ValueError):
            generate_trajectory(viking, duration_s=0, seed=0)
        with pytest.raises(ValueError):
            generate_party(viking, 0, duration_s=1, seed=0)


class TestFi:
    def test_avatars_positions_and_exclusion(self):
        gw = load_game("pool")
        positions = [Vec2(5, 5), Vec2(6, 6)]
        avatars = avatars_at(gw, positions)
        assert len(avatars) == 2
        avatars_excl = avatars_at(gw, positions, exclude_player=0)
        assert len(avatars_excl) == 1
        assert avatars_excl[0].ground_position == Vec2(6, 6)

    def test_racing_avatars_are_cars(self):
        gw = load_game("racing")
        avatars = avatars_at(gw, [gw.spawn_points(1)[0]])
        assert avatars[0].kind_name == "car"

    def test_fi_ids_disjoint_from_scene(self):
        gw = load_game("pool")
        avatars = avatars_at(gw, [Vec2(5, 5)])
        scene_ids = {o.object_id for o in gw.scene.objects}
        assert not scene_ids & {a.object_id for a in avatars}


class TestRecorder:
    def test_roundtrip(self, tmp_path):
        traces = [simple_trajectory(8), simple_trajectory(5)]
        path = tmp_path / "traces.json"
        save_traces(traces, path)
        loaded = load_traces(path)
        assert len(loaded) == 2
        assert loaded[0].player_id == 3
        assert loaded[0].positions() == traces[0].positions()
        assert [s.t_ms for s in loaded[1].samples] == [
            s.t_ms for s in traces[1].samples
        ]

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "traces": []}')
        with pytest.raises(ValueError):
            load_traces(path)

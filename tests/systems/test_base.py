"""Unit tests for the systems scaffolding (Session, RunResult)."""

import pytest

from repro.metrics import FrameRecord, MetricsCollector
from repro.systems import PlayerResult, RunResult, Session, SessionConfig, run_system
from repro.systems.base import SENSOR_SCANOUT_MS
from repro.world import load_game


def make_player(player_id, fps=60.0, cache_hit_ratio=None, frame_kb=100.0):
    collector = MetricsCollector()
    interval = 1000.0 / fps
    for k in range(20):
        collector.add(
            FrameRecord(
                t_ms=k * interval,
                interval_ms=interval,
                render_ms=5.0,
                responsiveness_ms=12.0,
                frame_bytes=int(frame_kb * 1000) if k % 5 == 0 else 0,
                cache_hit=(k % 5 != 0) if cache_hit_ratio is not None else None,
            )
        )
    metrics = collector.summary(cpu_utilization=0.3)
    return PlayerResult(
        player_id=player_id, metrics=metrics, fetches=4, power_w=4.0,
        temperature_c=45.0,
    )


class TestRunResult:
    def _result(self, n=2):
        return RunResult(
            system="coterie", game="viking", n_players=n, duration_s=10.0,
            players=[make_player(i, cache_hit_ratio=0.8) for i in range(n)],
            be_mbps=50.0, fi_kbps=70.0, link_utilization=0.2,
        )

    def test_aggregates(self):
        result = self._result()
        assert result.mean_fps == pytest.approx(60.0)
        assert result.mean_inter_frame_ms == pytest.approx(1000.0 / 60.0)
        assert result.mean_responsiveness_ms == pytest.approx(12.0)
        assert result.per_player_be_mbps() == pytest.approx(25.0)

    def test_cache_hit_aggregation(self):
        result = self._result()
        assert result.mean_cache_hit_ratio == pytest.approx(0.8)

    def test_cache_hit_none_without_cache(self):
        result = RunResult(
            system="mobile", game="pool", n_players=1, duration_s=5.0,
            players=[make_player(0)], be_mbps=0.0, fi_kbps=1.0,
            link_utilization=0.0,
        )
        assert result.mean_cache_hit_ratio is None


class TestSession:
    def test_construction(self):
        world = load_game("pool")
        session = Session(world, 2, SessionConfig(duration_s=3.0, seed=1))
        assert len(session.trajectories) == 2
        assert len(session.collectors) == 2
        assert session.horizon_ms == 3000.0
        assert session.fi_ms > 0

    def test_rejects_zero_players(self):
        world = load_game("pool")
        with pytest.raises(ValueError):
            Session(world, 0, SessionConfig(duration_s=1.0))

    def test_position_lookup_clamps(self):
        world = load_game("pool")
        session = Session(world, 1, SessionConfig(duration_s=2.0, seed=1))
        first = session.position_at(0, 0.0)
        beyond = session.position_at(0, 10_000.0)
        assert first.t_ms == 0.0
        assert beyond.t_ms == session.trajectories[0][-1].t_ms

    def test_link_sized_to_players(self):
        world = load_game("pool")
        solo = Session(world, 1, SessionConfig(duration_s=1.0))
        quad = Session(world, 4, SessionConfig(duration_s=1.0))
        assert quad.link.mac_efficiency < solo.link.mac_efficiency

    def test_finish_builds_results(self):
        world = load_game("pool")
        session = Session(world, 1, SessionConfig(duration_s=1.0, seed=2))
        session.collectors[0].add(
            FrameRecord(t_ms=16.7, interval_ms=16.7, render_ms=5.0,
                        responsiveness_ms=12.0)
        )
        result = session.finish("mobile", [0.2])
        assert result.system == "mobile"
        assert result.players[0].metrics.cpu_utilization == 0.2
        assert result.players[0].power_w > 0
        assert result.players[0].temperature_c > 25.0

    def test_link_too_slow_for_any_frame(self):
        """No player displays a frame: the run reports an empty roster
        instead of failing on the empty QoE summary."""
        config = SessionConfig(duration_s=1.0, seed=1, wifi_mbps=0.01)
        result = run_system("thin_client", "pool", 2, config)
        assert result.players == [] and result.n_players == 2

    def test_sensor_overhead_constant(self):
        assert 0.0 < SENSOR_SCANOUT_MS < 2.0


class TestRunSystemScale:
    def test_scaled_world_runs(self):
        result = run_system(
            "mobile", "viking", 1, SessionConfig(duration_s=2.0, seed=1),
            scale=0.25,
        )
        assert result.game == "viking"
        assert result.players[0].metrics.frames > 10

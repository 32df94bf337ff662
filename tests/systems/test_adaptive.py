"""System tests for closed-loop adaptive streaming.

Three layers, mirroring the robustness-test structure:

* gating — ``adapt=False`` runs are bit-identical to the pinned
  pre-adaptation clean path (the controller must be invisible when off);
* effectiveness — adaptive Coterie is no worse than fixed-CRF on
  deadline-miss rate under every committed trace profile, and all three
  system loops carry the controller end to end;
* determinism — the same (trace, seed, config) replays to identical
  SessionMetrics, including the ABR timeline.
"""

from dataclasses import replace

import pytest

from repro.net import ImpairmentConfig, RateTrace, TRACE_PROFILES
from repro.systems import (
    SessionConfig,
    run_coterie,
    run_multi_furion,
    run_thin_client,
)
from repro.world import load_game

PINNED_CONFIG = dict(duration_s=4.0, seed=1)

# Captured from the pre-adaptation tree (racing, 4 players, the config
# above); see tests/systems/test_resilience.py for the original capture.
PINNED_FPS = 60.0
PINNED_INTER_MS = 16.666666666666664
PINNED_BE_MBPS = 64.468926
PINNED_FRAMES = [235, 235, 235, 235]

DURATION_S = 3.0
SEED = 1


def _trace_config(profile, adapt, duration_s=DURATION_S, seed=SEED):
    trace = RateTrace.named(profile, seed=seed, duration_ms=duration_s * 1000.0)
    return SessionConfig(
        duration_s=duration_s, seed=seed,
        impairment=ImpairmentConfig(rate_trace=trace), adapt=adapt,
    )


def _miss_rate(result):
    ms = [p.metrics for p in result.players if p.metrics.frames]
    return sum(m.deadline_miss_rate for m in ms) / len(ms)


class TestAdaptGating:
    def test_adapt_none_bit_identical_to_pinned_clean_path(self, racing):
        """The whole adaptation layer must be invisible when off."""
        world, artifacts = racing
        result = run_coterie(world, 4, SessionConfig(**PINNED_CONFIG),
                             artifacts)
        assert result.mean_fps == PINNED_FPS
        assert result.mean_inter_frame_ms == PINNED_INTER_MS
        assert result.be_mbps == pytest.approx(PINNED_BE_MBPS, abs=1e-6)
        assert [p.metrics.frames for p in result.players] == PINNED_FRAMES

    def test_adapt_none_reports_zeroed_abr_fields(self, racing):
        world, artifacts = racing
        result = run_coterie(world, 4, SessionConfig(**PINNED_CONFIG),
                             artifacts)
        for player in result.players:
            m = player.metrics
            assert m.drop_rate == 0.0
            assert m.abr_steps_down == 0 and m.abr_steps_up == 0
            assert m.abr_drops == 0
            assert m.abr_mean_crf == 0.0 and m.abr_degraded_ms == 0.0
            assert m.abr_crf_timeline == ()

    def test_adapt_alone_enables_degraded_mode(self):
        config = SessionConfig(duration_s=1.0, seed=1, adapt=True)
        assert config.degraded_mode
        assert not SessionConfig(duration_s=1.0, seed=1).degraded_mode


class TestAdaptiveEffectiveness:
    @pytest.mark.parametrize("profile", TRACE_PROFILES)
    def test_adaptive_no_worse_than_fixed_on_misses(self, racing, profile):
        """The headline claim, per committed trace."""
        world, artifacts = racing
        fixed = run_coterie(world, 4, _trace_config(profile, False), artifacts)
        adaptive = run_coterie(world, 4, _trace_config(profile, True), artifacts)
        assert _miss_rate(adaptive) <= _miss_rate(fixed)

    def test_adaptive_coterie_actually_adapts(self, racing):
        world, artifacts = racing
        result = run_coterie(world, 4, _trace_config("bufferbloat", True), artifacts)
        ms = [p.metrics for p in result.players]
        assert sum(m.abr_steps_down for m in ms) > 0
        assert all(m.abr_crf_timeline[0] == (0.0, 25.0) for m in ms)
        assert any(m.abr_degraded_ms > 0 for m in ms)
        # Degraded rungs carry a higher time-weighted CRF than base (25).
        assert any(m.abr_mean_crf > 25.0 for m in ms)

    def test_multi_furion_carries_controller(self):
        world = load_game("racing")
        result = run_multi_furion(world, 2, _trace_config("bufferbloat", True))
        ms = [p.metrics for p in result.players]
        assert all(m.frames > 0 for m in ms)
        assert sum(m.abr_steps_down for m in ms) > 0

    def test_thin_client_carries_controller(self):
        world = load_game("racing")
        result = run_thin_client(world, 2, _trace_config("bufferbloat", True))
        ms = [p.metrics for p in result.players]
        assert all(m.frames > 0 for m in ms)
        assert sum(m.abr_steps_down for m in ms) > 0

    def test_drops_not_counted_as_deadline_misses(self, racing):
        """Drops are chosen degradation: dropped frames must not inflate
        the reactive deadline-miss rate."""
        world, artifacts = racing
        # The deep bufferbloat trough on a 100 Mbps link: the forecast
        # crosses the drop margin often enough to drop frames.
        config = replace(_trace_config("bufferbloat", True), wifi_mbps=100.0)
        result = run_coterie(world, 4, config, artifacts)
        for player in result.players:
            m = player.metrics
            assert m.abr_drops >= 0
            # drop_rate + deadline_miss_rate <= 1 and both tracked apart.
            assert 0.0 <= m.drop_rate <= 1.0
            assert 0.0 <= m.deadline_miss_rate <= 1.0
        assert sum(p.metrics.abr_drops for p in result.players) > 0


class TestReplayDeterminism:
    @staticmethod
    def _key(result):
        return ([p.metrics for p in result.players], result.be_mbps,
                result.fi_kbps)

    @pytest.mark.parametrize("profile", ["cellular", "contention"])
    def test_same_trace_seed_config_replays_identically(self, racing, profile):
        world, artifacts = racing
        first = run_coterie(world, 4, _trace_config(profile, True), artifacts)
        second = run_coterie(world, 4, _trace_config(profile, True), artifacts)
        assert self._key(first) == self._key(second)

    def test_different_seed_changes_cellular_outcome(self, racing):
        world, artifacts = racing
        a = run_coterie(world, 4, _trace_config("cellular", True, seed=1), artifacts)
        b = run_coterie(world, 4, _trace_config("cellular", True, seed=2), artifacts)
        assert self._key(a) != self._key(b)

    def test_thin_client_replays_identically(self):
        world = load_game("racing")
        first = run_thin_client(world, 2, _trace_config("contention", True))
        second = run_thin_client(world, 2, _trace_config("contention", True))
        assert self._key(first) == self._key(second)

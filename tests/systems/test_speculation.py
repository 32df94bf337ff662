"""Speculative prefetch + sync validation: pinned clean path, chaos matrix.

Four contracts:

* **bit-identity** — ``predict=None, sync=False`` runs reproduce the
  pinned pre-speculation results exactly: the machinery is invisible
  unless enabled;
* **effectiveness** — speculation warms the cache ahead of motion, so
  the hit ratio improves and the display cadence is untouched;
* **convergence** — a corruption storm is fully absorbed by
  digest-checked rollbacks: every corrupted speculative entry is
  discarded before display and the run converges to full rate;
* **detection** — every scripted desync raises exactly one alarm within
  one validator cadence, attributed to the right slot, and clean runs
  never false-alarm.
"""

import pytest

from repro.faults import FaultSchedule
from repro.predict import PosePredictor, PredictConfig
from repro.session.sync import CADENCE_MS
from repro.systems import SessionConfig, run_coterie

PINNED_CONFIG = dict(duration_s=4.0, seed=1)

# Captured from the pre-speculation tree (racing, 4 players, the config
# above); see tests/systems/test_resilience.py for provenance.  A run
# with prediction and sync checking *disabled* must reproduce these
# bit-for-bit.
PINNED_FPS = 60.0
PINNED_INTER_MS = 16.666666666666664
PINNED_BE_MBPS = 64.468926
PINNED_FI_KBPS = 204.8
PINNED_HIT_RATIO = 0.7297872340425532
PINNED_FRAMES = [235, 235, 235, 235]


def run(racing, n_players=4, predict=None, sync=False, faults=None, **kwargs):
    """One racing run with the speculation knobs under test."""
    world, artifacts = racing
    config = SessionConfig(
        **{**PINNED_CONFIG, **kwargs}, predict=predict, sync=sync,
        faults=faults,
    )
    return run_coterie(world, n_players, config, artifacts)


def spec_totals(result):
    """Summed speculation/sync counters across players."""
    metrics = [p.metrics for p in result.players]
    return {
        field: sum(getattr(m, field) for m in metrics)
        for field in (
            "spec_predictions", "spec_prefetches", "spec_confirms",
            "spec_mispredictions", "spec_rollbacks", "spec_expired",
            "desync_alarms", "resyncs",
        )
    }


class TestPinnedCleanPath:
    def test_disabled_speculation_bit_identical_to_seed(self, racing):
        result = run(racing)
        assert result.mean_fps == PINNED_FPS
        assert result.mean_inter_frame_ms == PINNED_INTER_MS
        assert result.be_mbps == PINNED_BE_MBPS
        assert result.fi_kbps == PINNED_FI_KBPS
        assert result.mean_cache_hit_ratio == PINNED_HIT_RATIO
        assert [p.metrics.frames for p in result.players] == PINNED_FRAMES
        totals = spec_totals(result)
        assert all(v == 0 for v in totals.values()), totals

    def test_disabled_speculation_metrics_dataclass_clean(self, racing):
        """Every speculation/sync field defaults to zero when disabled."""
        result = run(racing, n_players=2)
        for player in result.players:
            m = player.metrics
            assert m.spec_predictions == 0
            assert m.desync_alarms == 0
            assert m.desync_detection_ms == 0.0
            assert m.resync_recovery_ms == 0.0


class TestSpeculationEffectiveness:
    def test_hit_ratio_improves_at_full_rate(self, racing):
        baseline = run(racing, n_players=2)
        spec = run(racing, n_players=2, predict=PredictConfig())
        assert spec.mean_cache_hit_ratio > baseline.mean_cache_hit_ratio
        assert spec.mean_fps >= baseline.mean_fps - 0.1
        totals = spec_totals(spec)
        assert totals["spec_predictions"] > 0
        assert totals["spec_prefetches"] > 0
        assert totals["spec_confirms"] > 0
        # No corruption faults: nothing to roll back.
        assert totals["spec_rollbacks"] == 0

    def test_speculative_runs_deterministic(self, racing):
        a = run(racing, n_players=2, predict=PredictConfig(), sync=True)
        b = run(racing, n_players=2, predict=PredictConfig(), sync=True)
        assert [p.metrics for p in a.players] == [p.metrics for p in b.players]
        assert [p.records for p in a.players] == [p.records for p in b.players]
        assert a.be_mbps == b.be_mbps
        assert a.fi_kbps == b.fi_kbps

    def test_sync_validator_clean_run_zero_alarms(self, racing):
        without_sync = run(racing, n_players=3, predict=PredictConfig())
        result = run(racing, n_players=3, predict=PredictConfig(), sync=True)
        totals = spec_totals(result)
        assert totals["desync_alarms"] == 0
        assert totals["resyncs"] == 0
        # The digest exchange costs FI-channel bytes, so fi_kbps grows
        # over the same run without the validator.
        assert result.fi_kbps > without_sync.fi_kbps

    def test_teleport_storm_throttles_but_survives(self, racing):
        faults = FaultSchedule.parse(
            "teleport@1000:0~20,teleport@2000:0~20,snapturn@1500:0~120"
        )
        result = run(racing, n_players=2, predict=PredictConfig(),
                     faults=faults)
        totals = spec_totals(result)
        # The jumps blow through the confidence radius: mispredictions
        # are counted and the run still displays at full rate.
        assert totals["spec_mispredictions"] > 0
        assert result.mean_fps >= 59.0


class TestRollbackConvergence:
    def test_corruption_storm_fully_rolled_back(self, racing):
        baseline = run(racing, n_players=2)  # no speculation at all
        clean = run(racing, n_players=2, predict=PredictConfig())
        corrupt = run(
            racing, n_players=2, predict=PredictConfig(),
            faults=FaultSchedule.parse("speccorrupt@500-2500"),
        )
        totals = spec_totals(corrupt)
        assert totals["spec_rollbacks"] > 0
        # Every rolled-back entry was refetched authoritatively: the
        # display cadence converges, and the storm never degrades the
        # run below the non-speculative baseline (rollbacks only cost
        # the speculative *gain*, never correctness or frames).
        assert corrupt.mean_fps >= clean.mean_fps - 0.1
        for p_corrupt, p_base in zip(corrupt.players, baseline.players):
            assert p_corrupt.metrics.frames >= p_base.metrics.frames

    def test_corrupted_entries_never_confirm_while_storm_covers(self, racing):
        """During an all-run storm every digest check fails: zero confirms
        of corrupted entries — each speculative landing rolls back."""
        corrupt = run(
            racing, n_players=2, predict=PredictConfig(),
            faults=FaultSchedule.parse("speccorrupt@0-4000"),
        )
        totals = spec_totals(corrupt)
        assert totals["spec_rollbacks"] > 0
        assert totals["spec_confirms"] == 0


class TestDesyncDetection:
    def test_single_injection_detected_within_cadence(self, racing):
        result = run(
            racing, n_players=3, predict=PredictConfig(), sync=True,
            faults=FaultSchedule.parse("desync@1500:1"),
        )
        metrics = [p.metrics for p in result.players]
        assert [m.desync_alarms for m in metrics] == [0, 1, 0]
        assert 0.0 <= metrics[1].desync_detection_ms <= CADENCE_MS
        assert metrics[1].resyncs == 1
        assert metrics[1].resync_recovery_ms <= 2 * CADENCE_MS

    def test_resync_rewarms_the_cache(self, racing):
        result = run(
            racing, n_players=2, predict=PredictConfig(), sync=True,
            faults=FaultSchedule.parse("desync@1000:0"),
        )
        assert result.players[0].metrics.resyncs == 1
        assert result.mean_fps >= 59.0


@pytest.mark.chaos
class TestDesyncChaosMatrix:
    """Seeded desync storms: every injection detected, no false alarms."""

    SCHEDULES = (
        "desync@1000:0",
        "desync@700:1,desync@2100:0",
        "desync@500:2,desync@1400:2,desync@2600:0",
        "desync@900:0,teleport@1200:1~10,speccorrupt@1500-2200",
    )

    @pytest.mark.parametrize("spec", SCHEDULES)
    @pytest.mark.parametrize("seed", (1, 2))
    def test_every_injection_detected(self, racing, spec, seed):
        faults = FaultSchedule.parse(spec)
        result = run(
            racing, n_players=3, predict=PredictConfig(), sync=True,
            faults=faults, seed=seed, duration_s=3.5,
        )
        expected = {}
        for injection in faults.desyncs:
            expected[injection.player_id] = (
                expected.get(injection.player_id, 0) + 1
            )
        metrics = [p.metrics for p in result.players]
        for slot, m in enumerate(metrics):
            assert m.desync_alarms == expected.get(slot, 0), (
                f"slot {slot} under {spec!r} seed {seed}"
            )
            if m.desync_alarms:
                assert m.desync_detection_ms <= CADENCE_MS
                assert m.resyncs == m.desync_alarms

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_clean_runs_never_false_alarm(self, racing, seed):
        result = run(
            racing, n_players=3, predict=PredictConfig(), sync=True,
            seed=seed, duration_s=3.0,
        )
        totals = spec_totals(result)
        assert totals["desync_alarms"] == 0
        assert totals["resyncs"] == 0


class TestPredictorRejoinReset:
    def test_fresh_predictor_after_rejoin(self):
        """A rejoining slot must not inherit the dead incarnation's
        velocity state (the PosePredictor is re-seated)."""
        predictor = PosePredictor(PredictConfig())
        from repro.geometry import Vec2

        predictor.observe(0.0, Vec2(0.0, 0.0), 0.0)
        predictor.observe(16.0, Vec2(1.0, 0.0), 0.0)
        assert predictor.predict(16.0) is not None
        fresh = PosePredictor(PredictConfig())
        assert fresh.predict(16.0) is None

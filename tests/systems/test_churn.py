"""Integration tests for dynamic session membership (churn).

Three layers:

* lifecycle — joins, leaves, crashes, and rejoins drive the real system
  loops end to end (warm-up through FrameCache / shared-link transfers);
* determinism — the same (schedule, seed) twice produces byte-identical
  epoch logs and metrics, and churn=None runs are bit-identical to the
  pre-supervision clean path;
* chaos — a seeded matrix of schedules x seeds x systems completes with
  zero invariant violations (marked ``chaos``; CI runs it separately).
"""

import dataclasses
import math
import warnings

import pytest

from repro.faults import ChurnSchedule, FaultSchedule
from repro.net import ImpairmentConfig, RateTrace
from repro.session import ACTIVE, CRASHED, LEFT, SupervisorConfig
from repro.systems import (
    SessionConfig,
    prepare_artifacts,
    run_coterie,
    run_mobile,
    run_multi_furion,
    run_thin_client,
)
from repro.telemetry import SpanTracer
from repro.world import load_game

BASE = dict(duration_s=4.0, seed=1)


@pytest.fixture(scope="module")
def pool():
    world = load_game("pool")
    artifacts = prepare_artifacts(world, SessionConfig(**BASE))
    return world, artifacts


def churn_config(spec, **overrides):
    kwargs = {**BASE, "churn": ChurnSchedule.parse(spec)}
    kwargs.update(overrides)
    return SessionConfig(**kwargs)


def by_slot(result):
    """Player results keyed by slot id (no-frame slots have no row)."""
    return {p.player_id: p for p in result.players}


def metrics_key(result):
    """Everything that must match for two runs to count as identical."""
    return (
        [dataclasses.astuple(p.metrics) for p in result.players],
        result.be_mbps,
        result.fi_kbps,
    )


class TestLifecycle:
    def test_join_leave_crash_coterie(self, racing):
        world, artifacts = racing
        config = churn_config("join@1000,crash@1800:1,leave@2500:0")
        result = run_coterie(world, 3, config, artifacts)
        member = result.membership
        assert member is not None
        assert member.total_slots == 4
        assert member.joins_admitted == 1
        assert member.leaves == 1
        assert member.evictions == 1
        assert member.invariant_violations == 0
        assert member.invariant_checks > 0
        assert member.final_states[0] == LEFT
        assert member.final_states[1] == CRASHED
        assert member.final_states[3] == ACTIVE
        # The joiner produced frames and carries its membership metrics.
        players = by_slot(result)
        joiner = players[3].metrics
        assert joiner.frames > 0
        assert joiner.join_latency_ms > 0
        assert joiner.warmup_ms > 0
        assert joiner.incarnations == 1
        # Departed players stop producing frames near their exit epochs.
        leaver = players[0].metrics
        assert 0 < leaver.frames < players[2].metrics.frames

    def test_rejoin_multi_furion(self, pool):
        world, _ = pool
        config = churn_config("leave@1000:0,rejoin@2000:0",
                              wifi_mbps=2000.0)
        result = run_multi_furion(world, 2, config)
        member = result.membership
        assert member.joins_admitted == 1
        assert member.final_states[0] == ACTIVE
        assert member.stats[0].incarnations == 2
        assert by_slot(result)[0].metrics.incarnations == 2
        assert member.invariant_violations == 0

    def test_thin_client_churn(self, pool):
        world, _ = pool
        config = churn_config("join@1000,leave@2500:0", wifi_mbps=2000.0)
        result = run_thin_client(world, 1, config)
        member = result.membership
        assert member.joins_admitted == 1
        assert member.leaves == 1
        assert member.invariant_violations == 0
        assert by_slot(result)[1].metrics.frames > 0

    def test_mobile_rejects_churn(self):
        world = load_game("pool")
        config = churn_config("join@1000")
        with pytest.raises(ValueError, match="mobile"):
            run_mobile(world, 1, config)

    def test_join_rejected_on_saturated_link(self, pool):
        """Multi-Furion whole-BE joins must bounce off a thin link."""
        world, _ = pool
        config = churn_config("join@1000", wifi_mbps=120.0)
        result = run_multi_furion(world, 1, config)
        member = result.membership
        assert member.joins_admitted == 0
        assert member.joins_rejected == 1
        rejects = [e for e in member.epochs
                   if e.cause.startswith("rejected:")]
        assert rejects and "constraint-2" in rejects[0].cause
        # The rejected slot never displayed a frame: no QoE row at all.
        assert 1 not in by_slot(result)

    def test_crash_mid_handshake(self, racing):
        """Crashing right after admission aborts the warm-up stream."""
        world, artifacts = racing
        config = churn_config("join@1000,crash@1001:3")
        result = run_coterie(world, 3, config, artifacts)
        member = result.membership
        assert member.invariant_violations == 0
        # The joiner never reached ACTIVE: crashed during admission or
        # warm-up, so it either went back to IDLE or was evicted.
        assert member.final_states[3] != ACTIVE
        assert 3 not in by_slot(result)

    def test_churn_composes_with_faults(self, racing):
        world, artifacts = racing
        config = SessionConfig(
            **BASE,
            churn=ChurnSchedule.parse("join@1200,crash@2200:0"),
            faults=FaultSchedule.parse("dip@1500-2500:0.3,stall@500-900:20"),
        )
        result = run_coterie(world, 2, config, artifacts)
        member = result.membership
        assert member.invariant_violations == 0
        assert member.evictions == 1


    def test_dead_incarnation_background_fetch_is_withdrawn(self, pool):
        """A leaver's in-flight background fetch belongs to the life that
        issued it: it must not land in the rejoiner's cleared cache, nor
        clear the rejoiner's pending flag.  Slot 1 misses a deadline in
        the dip, leaves with the fetch still retrying, and rejoins before
        it lands — the dead life's fetch reports no completion."""
        world, artifacts = pool
        tracer = SpanTracer()
        config = SessionConfig(
            duration_s=2.5, seed=1, tracer=tracer,
            faults=FaultSchedule.parse("dip@300-2000:0.003"),
            churn=ChurnSchedule.parse("leave@500:1,rejoin@700:1"),
        )
        run_coterie(world, 2, config, artifacts)
        (left,) = tracer.instants("member.left", player=1)
        retries = tracer.instants("fetch.retry", player=1)
        assert any(r.start_ms > left.start_ms for r in retries)  # it outlived the leave
        straddling = [
            span for name in ("fetch.background", "fetch.abandoned")
            for span in tracer.spans(name, player=1)
            if span.start_ms < left.start_ms < span.end_ms
        ]
        assert straddling == []

    def test_frame_outlasting_eviction_is_dropped(self, pool):
        """On a 5 Mbps link one far-BE fetch takes over a second: the
        detector evicts both clients while they block in it, and the
        frame that lands afterwards reaches no display (it used to trip
        invariant 5, "frame delivered to a non-displaying player")."""
        world, artifacts = pool
        config = churn_config("leave@500:1,rejoin@700:1", wifi_mbps=5.0)
        result = run_coterie(world, 2, config, artifacts)
        assert result.players == []
        assert result.membership.evictions == 2
        assert result.membership.invariant_violations == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty roster must not warn
            assert math.isnan(result.mean_fps)


class TestDeterminism:
    def test_same_schedule_same_seed_identical(self, racing):
        world, artifacts = racing
        spec = "join@1000,crash@1800:1,leave@2500:0,rejoin@3200:0"
        a = run_coterie(world, 3, churn_config(spec), artifacts)
        b = run_coterie(world, 3, churn_config(spec), artifacts)
        assert a.membership.fingerprint() == b.membership.fingerprint()
        assert metrics_key(a) == metrics_key(b)
        assert [dataclasses.astuple(s) for s in a.membership.stats] == \
               [dataclasses.astuple(s) for s in b.membership.stats]

    def test_no_churn_bit_identical_to_clean(self, racing):
        """churn=None must take exactly the pre-supervision code path."""
        world, artifacts = racing
        clean = run_coterie(world, 4, SessionConfig(**BASE), artifacts)
        assert clean.membership is None
        # Values pinned from the pre-robustness tree (test_resilience).
        assert clean.mean_fps == 60.0
        assert clean.be_mbps == 64.468926
        assert [p.metrics.frames for p in clean.players] == [235] * 4
        # New SessionMetrics fields stay at their zero defaults.
        m = clean.players[0].metrics
        assert (m.join_latency_ms, m.warmup_ms, m.epochs_survived,
                m.evictions, m.incarnations) == (0.0, 0.0, 0, 0, 0)

    def test_empty_schedule_supervised_run_matches_clean(self, racing):
        """Supervision with zero churn events must not perturb frames.

        This is the <5% overhead path's correctness half: the supervisor
        runs (seating epochs, monitor scans) but no membership changes,
        so every frame-level output is bit-identical to the clean run.
        """
        world, artifacts = racing
        clean = run_coterie(world, 4, SessionConfig(**BASE), artifacts)
        supervised = run_coterie(
            world, 4, SessionConfig(**BASE, churn=ChurnSchedule()), artifacts
        )
        assert supervised.membership is not None
        assert supervised.membership.n_epochs == 4  # initial seats only
        assert supervised.membership.invariant_violations == 0
        assert supervised.mean_fps == clean.mean_fps
        assert supervised.be_mbps == clean.be_mbps
        assert supervised.fi_kbps == clean.fi_kbps
        for p_clean, p_sup in zip(clean.players, supervised.players):
            assert p_sup.metrics.frames == p_clean.metrics.frames
            assert p_sup.metrics.inter_frame_ms == \
                   p_clean.metrics.inter_frame_ms
            assert p_sup.metrics.mean_ssim == p_clean.metrics.mean_ssim


CHAOS_SCHEDULES = [
    "join@500,join@900,leave@1500:0,crash@2000:1",
    "join@400:2,crash@1200:0,rejoin@2400:0",
    "flap@800-3000:1~600",
    "crash@600:0,crash@900:1,join@1500,join@1600",
    "leave@700:1,rejoin@1400:1,crash@2100:1,join@2500",
]


@pytest.mark.chaos
@pytest.mark.slow
class TestChaosMatrix:
    """Seeded churn storms: every run must hold every invariant."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("spec", CHAOS_SCHEDULES)
    def test_coterie_chaos(self, pool, spec, seed):
        world, artifacts = pool
        config = SessionConfig(
            duration_s=3.0, seed=seed, churn=ChurnSchedule.parse(spec),
            supervision=SupervisorConfig(warmup_fetches=2),
        )
        result = run_coterie(world, 2, config, artifacts)
        member = result.membership
        assert member.invariant_violations == 0
        assert member.invariant_checks > 0
        assert member.n_epochs >= 2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("spec", CHAOS_SCHEDULES)
    def test_coterie_chaos_adaptive(self, pool, spec, seed):
        """Churn storms with the ABR loop live on a degrading link.

        Adaptation must not disturb membership invariants: controllers
        are per-slot, so evictions/rejoins land mid-degradation and the
        replacement incarnation starts from a fresh rung.
        """
        trace = RateTrace.named("cellular", seed=seed, duration_ms=3000.0)
        world, artifacts = pool
        config = SessionConfig(
            duration_s=3.0, seed=seed, churn=ChurnSchedule.parse(spec),
            supervision=SupervisorConfig(warmup_fetches=2),
            impairment=ImpairmentConfig(rate_trace=trace),
            adapt=True,
        )
        result = run_coterie(world, 2, config, artifacts)
        member = result.membership
        assert member.invariant_violations == 0
        assert member.invariant_checks > 0
        assert member.n_epochs >= 2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("spec", CHAOS_SCHEDULES)
    def test_multi_furion_chaos(self, pool, spec, seed):
        world, _ = pool
        config = SessionConfig(
            duration_s=3.0, seed=seed, wifi_mbps=2000.0,
            churn=ChurnSchedule.parse(spec),
        )
        result = run_multi_furion(world, 2, config)
        member = result.membership
        assert member.invariant_violations == 0
        assert member.invariant_checks > 0
        assert member.n_epochs >= 2

"""Unit tests for the session supervision subsystem.

These exercise the membership state machine, the heartbeat failure
detector, and admission control in isolation — with a bare Simulator and
stub admission callbacks, no game worlds — so the timing arithmetic is
checked exactly.
"""

import pytest

from repro.core.constraint import BandwidthBudget, satisfies_bandwidth_constraint
from repro.faults import ChurnSchedule, CrashEvent, JoinEvent, LeaveEvent
from repro.session import (
    ACTIVE,
    ALLOWED_TRANSITIONS,
    CRASHED,
    IDLE,
    JOINING,
    LEFT,
    SUSPECT,
    WARMING,
    AdmissionController,
    InvariantChecker,
    InvariantViolation,
    SessionSupervisor,
    SupervisorConfig,
)
from repro.session import supervisor
from repro.sim import Simulator


def permissive_admission(max_players=8):
    """An admission controller on an effectively infinite link."""
    return AdmissionController(
        budget=BandwidthBudget(capacity_mbps=1e9),
        be_kbps_for=lambda slot: 1.0,
        fi_kbps_for=lambda n: float(n),
        max_players=max_players,
    )


def make_supervisor(schedule, n_initial=2, horizon_ms=10_000.0, extra_slots=None):
    sim = Simulator()
    if extra_slots is None:
        extra_slots = schedule.new_player_count()
    total = n_initial + extra_slots
    sup = SessionSupervisor(sim, schedule, n_initial, total, horizon_ms=horizon_ms)
    return sim, sup


class TestStateMachine:
    def test_all_edges_reference_known_states(self):
        from repro.session import membership
        for a, b in ALLOWED_TRANSITIONS:
            assert a in membership.ALL_STATES
            assert b in membership.ALL_STATES

    def test_illegal_transition_trips_invariant(self):
        sim, sup = make_supervisor(ChurnSchedule(), n_initial=1)
        sup.start(lambda slot, rejoining: None, permissive_admission())
        with pytest.raises(InvariantViolation):
            sup._transition(0, WARMING, "nonsense")  # ACTIVE -> WARMING illegal

    def test_initial_roster_seated_active(self):
        sim, sup = make_supervisor(ChurnSchedule(), n_initial=3)
        spawned = []
        sup.start(lambda slot, rejoining: spawned.append(slot),
                  permissive_admission())
        assert spawned == [0, 1, 2]
        assert sup.active_slots() == [0, 1, 2]
        assert [e.cause for e in sup.log] == ["initial"] * 3
        assert [e.epoch for e in sup.log] == [1, 2, 3]


class TestInvariantChecker:
    def test_counts_and_raises(self):
        checker = InvariantChecker()
        checker.require(True, "fine")
        assert checker.checks == 1 and checker.violations == 0
        with pytest.raises(InvariantViolation) as exc:
            checker.require(False, "broken", slot=3, state="idle")
        assert checker.violations == 1
        assert "slot=3" in str(exc.value)


class TestFailureDetector:
    """A silently-dead client must be found by heartbeat age alone."""

    def run_with_silent_client(self):
        sim, sup = make_supervisor(ChurnSchedule(), n_initial=2)

        def chatty(slot):
            while sim.now < 5_000.0:
                if not sup.poll(slot):
                    return
                yield 16.0

        def silent(slot):
            # Heartbeats once, then goes dark at t=1000 without leaving.
            while sim.now < 1_000.0:
                if not sup.poll(slot):
                    return
                yield 16.0

        def spawn(slot, rejoining):
            sim.spawn(chatty(slot) if slot == 0 else silent(slot))

        sup.start(spawn, permissive_admission())
        sim.run_until(5_000.0)
        return sup

    def test_suspect_then_evict_timing(self):
        sup = self.run_with_silent_client()
        events = {e.cause: e for e in sup.log}
        suspect = events["heartbeat-timeout"]
        evict = events["evicted"]
        assert suspect.slot == 1 and suspect.to_state == SUSPECT
        assert evict.slot == 1 and evict.to_state == CRASHED
        # Last heartbeat just before t=1000; SUSPECT at the first scan
        # with age > 400 and eviction at the first scan with age > 1200.
        last_beat = 1_000.0 - 16.0
        suspect_after, evict_after = supervisor.SUSPECT_AFTER_MS, supervisor.EVICT_AFTER_MS
        scan = supervisor.MONITOR_INTERVAL_MS
        assert suspect_after < suspect.t_ms - last_beat <= suspect_after + scan
        assert evict_after < evict.t_ms - last_beat <= evict_after + scan

    def test_evicted_client_stays_out(self):
        sup = self.run_with_silent_client()
        assert sup.state(1) == CRASHED
        assert sup.evictions == 1
        assert sum(sup._in_room) == 1  # eviction freed the room slot
        assert sup.active_slots() == [0]
        assert not sup.poll(1)  # no silent rejoin

    def test_suspect_recovers_on_resumed_heartbeat(self):
        sim, sup = make_supervisor(ChurnSchedule(), n_initial=1)

        def laggy(slot):
            if not sup.poll(slot):
                return
            yield 700.0  # one long frame: past suspect_after, short of evict
            assert sup.state(slot) == SUSPECT
            assert sup.poll(slot)  # heartbeat resumes
            assert sup.state(slot) == ACTIVE
            while sim.now < 2_000.0:  # keep heartbeating to stay ACTIVE
                if not sup.poll(slot):
                    return
                yield 16.0

        sup.start(lambda slot, rejoining: sim.spawn(laggy(slot)),
                  permissive_admission())
        sim.run_until(2_000.0)
        causes = [e.cause for e in sup.log]
        assert causes == ["initial", "heartbeat-timeout", "recovered"]
        assert sup.evictions == 0


class TestChurnDriver:
    def test_join_leave_crash_lifecycle(self):
        schedule = ChurnSchedule(
            joins=(JoinEvent(1_000.0),),
            leaves=(LeaveEvent(2_000.0, slot=0),),
            crashes=(CrashEvent(3_000.0, slot=1),),
        )
        sim, sup = make_supervisor(schedule, n_initial=2)

        def client(slot):
            if sup.state(slot) == WARMING:
                yield 5.0  # warm-up stand-in
                if not sup.activate(slot):
                    return
            while sim.now < 8_000.0:
                if not sup.poll(slot):
                    return
                yield 16.0

        sup.start(lambda slot, rejoining: sim.spawn(client(slot)),
                  permissive_admission())
        sim.run_until(8_000.0)
        assert sup.joins_requested == sup.joins_admitted == 1
        assert sup.leaves == 1
        assert sup.evictions == 1
        assert sup.state(0) == LEFT
        assert sup.state(1) == CRASHED
        assert sup.state(2) == ACTIVE
        summary = sup.summary()
        assert summary.invariant_violations == 0
        assert summary.final_active == (2,)
        # Join latency covers request -> ACTIVE, warm-up within it.
        stats = summary.stats[2]
        assert stats.join_latency_ms >= stats.warmup_ms > 0

    def test_stale_events_are_counted_not_applied(self):
        schedule = ChurnSchedule(
            leaves=(LeaveEvent(500.0, slot=0), LeaveEvent(900.0, slot=0)),
        )
        sim, sup = make_supervisor(schedule, n_initial=1, extra_slots=0)

        def client(slot):
            while sim.now < 3_000.0:
                if not sup.poll(slot):
                    return
                yield 16.0

        sup.start(lambda slot, rejoining: sim.spawn(client(slot)),
                  permissive_admission())
        sim.run_until(3_000.0)
        assert sup.leaves == 1
        assert sup.stale_events == 1  # second leave found the slot LEFT

    def test_rejoin_is_a_new_incarnation(self):
        schedule = ChurnSchedule(
            leaves=(LeaveEvent(500.0, slot=0),),
            joins=(JoinEvent(1_500.0, slot=0),),
        )
        sim, sup = make_supervisor(schedule, n_initial=1, extra_slots=0)
        spawns = []

        def client(slot):
            if sup.state(slot) == WARMING:
                yield 5.0
                if not sup.activate(slot):
                    return
            while sim.now < 4_000.0:
                if not sup.poll(slot):
                    return
                yield 16.0

        def spawn(slot, rejoining):
            spawns.append((slot, rejoining))
            sim.spawn(client(slot))

        sup.start(spawn, permissive_admission())
        sim.run_until(4_000.0)
        assert spawns == [(0, False), (0, True)]
        assert sup.summary().stats[0].incarnations == 2
        assert sup.state(0) == ACTIVE

    def test_crash_mid_handshake_aborts_warmup(self):
        schedule = ChurnSchedule(
            joins=(JoinEvent(1_000.0),),
            crashes=(CrashEvent(1_010.0, slot=1),),
        )
        sim, sup = make_supervisor(schedule, n_initial=1)

        def client(slot):
            if sup.state(slot) == WARMING:
                # Slow warm-up: poll between fetches, as the systems do.
                for _ in range(3):
                    if not sup.poll(slot):
                        return
                    yield 50.0
                if not sup.activate(slot):
                    return
            while sim.now < 6_000.0:
                if not sup.poll(slot):
                    return
                yield 16.0

        sup.start(lambda slot, rejoining: sim.spawn(client(slot)),
                  permissive_admission())
        sim.run_until(6_000.0)
        # Crash during WARMING: the handshake aborts, the detector evicts.
        assert sup.state(1) == CRASHED
        assert sup.evictions == 1
        assert sup.summary().invariant_violations == 0


class TestAdmissionControl:
    def test_roster_cap(self):
        ctl = permissive_admission(max_players=2)
        decision = ctl.evaluate([0, 1], 2)
        assert not decision and decision.reason == "roster-full"
        assert ctl.evaluate([0], 1).admitted

    def test_constraint2_arithmetic(self):
        # 3 players x 30 Mbps BE + FI fits 200 Mbps at 80% utilization
        # (90+small < 160) but 6 players (180+ > 160) do not.
        ctl = AdmissionController(
            budget=BandwidthBudget(capacity_mbps=200.0),
            be_kbps_for=lambda slot: 30_000.0,
            fi_kbps_for=lambda n: 10.0 * n,
            max_players=16,
        )
        ok = ctl.evaluate([0, 1], 2)
        assert ok.admitted and ok.reason == "ok"
        assert ok.predicted_be_kbps == pytest.approx(90_000.0)
        assert ok.utilization == pytest.approx(90.03 / 200.0)
        full = ctl.evaluate([0, 1, 2, 3, 4], 5)
        assert not full.admitted and full.reason == "constraint-2"

    def test_constraint1_render_check(self):
        ctl = AdmissionController(
            budget=BandwidthBudget(capacity_mbps=1e9),
            be_kbps_for=lambda slot: 1.0,
            fi_kbps_for=lambda n: 1.0,
            max_players=8,
            render_check=lambda slot: slot != 3,
        )
        assert ctl.evaluate([0], 1).admitted
        rejected = ctl.evaluate([0], 3)
        assert not rejected and rejected.reason == "constraint-1"

    def test_validate_rechecks_roster_as_is(self):
        ctl = AdmissionController(
            budget=BandwidthBudget(capacity_mbps=1.0),
            be_kbps_for=lambda slot: 500.0,
            fi_kbps_for=lambda n: 0.0,
            max_players=8,
        )
        assert ctl.validate([0]).admitted  # 0.5 Mbps <= 0.8
        assert not ctl.validate([0, 1]).admitted  # 1.0 > 0.8

    def test_bandwidth_constraint_rejects_negative(self):
        budget = BandwidthBudget(capacity_mbps=100.0)
        with pytest.raises(ValueError):
            satisfies_bandwidth_constraint([-1.0], 0.0, budget)

    def test_queued_join_admitted_after_leave(self):
        """A join refused on capacity retries and lands once room frees."""
        schedule = ChurnSchedule(
            joins=(JoinEvent(1_000.0),),
            leaves=(LeaveEvent(1_500.0, slot=0),),
        )
        sim, sup = make_supervisor(schedule, n_initial=2)
        ctl = permissive_admission(max_players=2)  # full at start

        def client(slot):
            if sup.state(slot) == WARMING:
                yield 5.0
                if not sup.activate(slot):
                    return
            while sim.now < 6_000.0:
                if not sup.poll(slot):
                    return
                yield 16.0

        sup.start(lambda slot, rejoining: sim.spawn(client(slot)), ctl)
        sim.run_until(6_000.0)
        assert sup.joins_queued == 1
        assert sup.joins_admitted == 1
        assert sup.state(2) == ACTIVE
        # First decision was roster-full, the admitting one came later.
        reasons = [d.reason for _, _, d in sup.decisions]
        assert reasons[0] == "roster-full" and reasons[-1] == "ok"

    def test_join_rejected_after_patience_runs_out(self):
        schedule = ChurnSchedule(joins=(JoinEvent(1_000.0),))
        sim, sup = make_supervisor(schedule, n_initial=2)
        ctl = permissive_admission(max_players=2)  # full forever

        def client(slot):
            while sim.now < 10_000.0:
                if not sup.poll(slot):
                    return
                yield 16.0

        sup.start(lambda slot, rejoining: sim.spawn(client(slot)), ctl)
        sim.run_until(10_000.0)
        assert sup.joins_admitted == 0
        assert sup.joins_rejected == 1
        assert sup.state(2) == IDLE
        reject = [e for e in sup.log if e.cause.startswith("rejected:")]
        assert reject and reject[0].cause == "rejected:roster-full"
        # Patience: gave up within max_admission_wait_ms of the request.
        assert reject[0].t_ms - 1_000.0 <= supervisor.MAX_ADMISSION_WAIT_MS


class TestSupervisorConfig:
    @pytest.mark.parametrize("kwargs", [dict(warmup_fetches=0), dict(max_players=0)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorConfig(**kwargs)


class TestChurnParse:
    def test_join_storm_and_rejoin(self):
        schedule = ChurnSchedule.parse("join@2000:3, rejoin@4000:1")
        assert len(schedule.joins) == 4
        assert schedule.new_player_count() == 3
        assert schedule.joins[-1].slot == 1

    def test_flap_expansion(self):
        schedule = ChurnSchedule.parse("flap@3000-9000:2~2000")
        # leave@3000, rejoin@5000, leave@7000, rejoin@9000 (window end).
        assert [e.t_ms for e in schedule.leaves] == [3000.0, 7000.0]
        assert [e.t_ms for e in schedule.joins] == [5000.0, 9000.0]
        assert all(e.slot == 2 for e in schedule.leaves)
        assert all(e.slot == 2 for e in schedule.joins)

    def test_events_sorted_orders_joins_before_leaves(self):
        schedule = ChurnSchedule.parse("leave@1000:0,rejoin@1000:0,crash@1000:1")
        kinds = [type(e).__name__ for e in schedule.events_sorted()]
        assert kinds == ["JoinEvent", "LeaveEvent", "CrashEvent"]

    def test_validate_slots(self):
        schedule = ChurnSchedule.parse("leave@1000:5")
        with pytest.raises(ValueError, match="slot 5"):
            schedule.validate_slots(4)
        schedule.validate_slots(6)

    @pytest.mark.parametrize("bad", [
        "bogus@100", "join@", "leave@100", "crash@100:x",
        "flap@200-100:1", "flap@100-200:1~0", "join@100:0",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            ChurnSchedule.parse(bad)

    def test_empty_spec(self):
        assert not ChurnSchedule.parse("")
        assert not ChurnSchedule.parse(" , ")

"""The session supervisor: roster owner, failure detector, epoch source.

One :class:`SessionSupervisor` per run owns the membership state of every
player slot and is the only component allowed to mutate it.  It is shared
by all system loops exactly the way :class:`~repro.faults.FaultInjector`
is: Coterie, Multi-Furion, and Thin-client all experience the same churn
timeline because they all consult the same supervisor.

Three cooperating pieces, all deterministic in sim time (the supervisor
holds no RNG):

* the **driver** process walks the :class:`~repro.faults.ChurnSchedule`
  and turns events into join attempts (through admission control) or
  pending leave/crash flags the client loops observe at their next poll;
* the **monitor** process is the heartbeat failure detector: a client
  whose last heartbeat is older than ``SUSPECT_AFTER_MS`` turns SUSPECT,
  and a SUSPECT older than ``EVICT_AFTER_MS`` is evicted (CRASHED) and
  removed from the PUN room — so a crashed client is discovered the way
  a real PUN room discovers one, by silence, not by fiat;
* the client loops call :meth:`poll` once per frame iteration — this is
  the heartbeat — and :meth:`poll` returning False tells the loop to
  stop producing frames (left, crashed, or evicted; an evicted client
  does *not* silently resume after a long outage, which is precisely the
  behaviour PR 2's outage windows could not express).

Every state change bumps the monotone membership epoch and is appended
to the epoch log; the :class:`~repro.session.invariants.InvariantChecker`
asserts the legal-transition, roster/FI-fanout, and Constraint-2
invariants at each one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..faults.churn import ChurnSchedule, CrashEvent, JoinEvent, LeaveEvent
from ..sim import Simulator
from ..telemetry import MetricsHub, SpanTracer
from .admission import AdmissionController, AdmissionDecision
from .invariants import InvariantChecker
from .membership import (
    ACTIVE,
    ALLOWED_TRANSITIONS,
    CRASHED,
    DISPLAYING,
    IDLE,
    JOINING,
    LEFT,
    SUSPECT,
    WARMING,
    EpochLog,
    MembershipEvent,
    SlotStats,
    new_stats,
)


# Failure-detector and admission timing (all sim-time ms).
MONITOR_INTERVAL_MS = 100.0  # failure-detector scan period
SUSPECT_AFTER_MS = 400.0  # heartbeat silence before SUSPECT
EVICT_AFTER_MS = 1200.0  # heartbeat silence before eviction
ADMISSION_RETRY_MS = 400.0  # queued-join retry interval
MAX_ADMISSION_WAIT_MS = 4000.0  # queue patience before reject


@dataclass(frozen=True)
class SupervisorConfig:
    """The supervisor's settable knobs."""

    warmup_fetches: int = 3  # panoramas streamed before ACTIVE
    max_players: int = 8  # hard roster cap

    def __post_init__(self) -> None:
        if self.warmup_fetches < 1:
            raise ValueError("warmup_fetches must be >= 1")
        if self.max_players < 1:
            raise ValueError("max_players must be >= 1")


@dataclass(frozen=True)
class MembershipSummary:
    """Aggregated membership outcome of one run (part of RunResult)."""

    total_slots: int
    initial_players: int
    epochs: Tuple[MembershipEvent, ...]
    joins_requested: int
    joins_admitted: int
    joins_rejected: int
    joins_queued: int
    leaves: int
    evictions: int
    stale_events: int  # schedule events that found the slot ineligible
    invariant_checks: int
    invariant_violations: int
    final_states: Tuple[str, ...]
    stats: Tuple[SlotStats, ...]

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    @property
    def final_active(self) -> Tuple[int, ...]:
        return tuple(
            slot for slot, state in enumerate(self.final_states)
            if state == ACTIVE
        )

    def fingerprint(self) -> Tuple[Tuple, ...]:
        """Byte-comparable epoch-log identity (determinism tests)."""
        return tuple(event.key() for event in self.epochs)


class SessionSupervisor:
    """Owns and mutates the membership state of one game session."""

    def __init__(
        self,
        sim: Simulator,
        schedule: ChurnSchedule,
        n_initial: int,
        total_slots: int,
        config: Optional[SupervisorConfig] = None,
        pun=None,
        tracer: Optional[SpanTracer] = None,
        metrics: Optional[MetricsHub] = None,
        horizon_ms: float = math.inf,
    ) -> None:
        if n_initial < 1:
            raise ValueError("n_initial must be >= 1")
        if total_slots < n_initial:
            raise ValueError("total_slots must cover the initial players")
        schedule.validate_slots(total_slots)
        self.sim = sim
        self.schedule = schedule
        self.config = config or SupervisorConfig()
        self.pun = pun
        self.tracer = tracer
        # Metrics hub (repro.telemetry.MetricsHub or None): membership
        # gauges/counters updated at _transition, the single mutation
        # point, so the series mirror the epoch log exactly.
        self._metrics = metrics
        if metrics is not None:
            self._members_gauge = metrics.gauge("members_active")
            self._epochs_counter = metrics.counter("membership_epochs_total")
            self._suspects_counter = metrics.counter("membership_suspects_total")
            self._evictions_counter = metrics.counter("membership_evictions_total")
            self._join_latency_gauge = metrics.gauge("join_latency_ms")
        self.n_initial = n_initial
        self.total_slots = total_slots
        self.horizon_ms = horizon_ms

        self.invariants = InvariantChecker()
        self.log = EpochLog()
        self.epoch = 0
        self.stats: Dict[int, SlotStats] = new_stats(total_slots)
        self.decisions: List[Tuple[float, int, AdmissionDecision]] = []

        self._states: List[str] = [IDLE] * total_slots
        self._in_room: List[bool] = [False] * total_slots
        self._pre_suspect: List[str] = [ACTIVE] * total_slots
        self._last_heartbeat: List[float] = [0.0] * total_slots
        self._leave_pending: List[bool] = [False] * total_slots
        self._crash_pending: List[bool] = [False] * total_slots
        self._join_requested_ms: Dict[int, float] = {}
        self._warm_started_ms: Dict[int, float] = {}

        self.joins_requested = 0
        self.joins_admitted = 0
        self.joins_rejected = 0
        self.joins_queued = 0
        self.leaves = 0
        self.evictions = 0
        self.stale_events = 0

        self._admission: Optional[AdmissionController] = None
        self._spawn_client: Optional[Callable[[int, bool], None]] = None
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(
        self,
        spawn_client: Callable[[int, bool], None],
        admission: AdmissionController,
    ) -> None:
        """Seat the initial roster and launch the driver + monitor.

        ``spawn_client(slot, rejoining)`` starts one client process;
        the supervisor calls it for the initial players immediately and
        for every later admission at warm-up start.
        """
        if self._started:
            raise RuntimeError("supervisor already started")
        self._started = True
        self._admission = admission
        self._spawn_client = spawn_client
        now = self.sim.now
        # Seat the whole initial roster before the first transition so
        # the FI-fanout invariant (pun.n_players == room size) holds on
        # every epoch, including the seating ones.
        for slot in range(self.n_initial):
            self._in_room[slot] = True
            self._last_heartbeat[slot] = now
            self.stats[slot].incarnations += 1
        for slot in range(self.n_initial):
            self._transition(slot, ACTIVE, "initial")
        for slot in range(self.n_initial):
            spawn_client(slot, False)
        self.sim.spawn(self._driver())
        self.sim.spawn(self._monitor())

    def _resolved_events(self):
        """Schedule events with anonymous joins bound to fresh slots.

        Fresh slots are assigned in deterministic event order starting
        after the initial roster, so (schedule, seed) fully determines
        who occupies which slot.
        """
        next_slot = self.n_initial
        resolved = []
        for event in self.schedule.events_sorted():
            if isinstance(event, JoinEvent) and event.slot is None:
                event = JoinEvent(event.t_ms, slot=next_slot)
                next_slot += 1
            resolved.append(event)
        return resolved

    # ------------------------------------------------------------------
    # Queries (client loops and tests)
    # ------------------------------------------------------------------

    def state(self, slot: int) -> str:
        """Current membership state of ``slot`` (one of the state constants)."""
        return self._states[slot]

    def active_slots(self) -> List[int]:
        """Slots currently ACTIVE (Constraint 2's roster)."""
        return [s for s in range(self.total_slots) if self._states[s] == ACTIVE]

    def _constraint_roster(self) -> List[int]:
        """Slots whose traffic the admission arithmetic must count:
        everyone in the room plus anyone already warming up."""
        return [
            s for s in range(self.total_slots)
            if self._in_room[s] or self._states[s] == WARMING
        ]

    # ------------------------------------------------------------------
    # Client-facing protocol
    # ------------------------------------------------------------------

    def poll(self, slot: int) -> bool:
        """Heartbeat + liveness check, called once per loop iteration.

        Returns False when the client must stop producing frames: it
        left, crashed, or was evicted.  A pending crash returns False
        *without* recording a heartbeat — the client dies silently and
        the failure detector, not the schedule, discovers it.
        """
        state = self._states[slot]
        if state not in (WARMING, ACTIVE, SUSPECT):
            return False
        if self._crash_pending[slot]:
            return False
        if self._leave_pending[slot]:
            self._leave_pending[slot] = False
            self.leaves += 1
            self._depart(slot, LEFT, "leave")
            return False
        if state == SUSPECT:
            # The detector was wrong (slow frames, outage window): the
            # heartbeat resumed before eviction, so restore the state
            # the player was in before suspicion.
            self._transition(slot, self._pre_suspect[slot], "recovered")
        self._last_heartbeat[slot] = self.sim.now
        return True

    def activate(self, slot: int) -> bool:
        """Warm-up finished: the player enters the room and turns ACTIVE.

        Returns False when the slot is no longer WARMING (it crashed,
        left, or was evicted mid-handshake) — the client must stop.
        """
        if self._states[slot] != WARMING:
            return False
        now = self.sim.now
        self._last_heartbeat[slot] = now
        stats = self.stats[slot]
        stats.join_latency_ms += now - self._join_requested_ms.get(slot, now)
        stats.warmup_ms += now - self._warm_started_ms.get(slot, now)
        if self._metrics is not None:
            self._join_latency_gauge.set(
                now - self._join_requested_ms.get(slot, now)
            )
        self._in_room[slot] = True
        if self.pun is not None:
            self.pun.add_player()
        self._transition(slot, ACTIVE, "warmed-up")
        return True

    def note_frame(self, slot: int, t_ms: float) -> None:
        """Invariant 5: frames go only to displaying (ACTIVE/SUSPECT)
        players — a SUSPECT frame was in flight when heartbeats stopped."""
        self.invariants.require(
            self._states[slot] in DISPLAYING,
            "frame delivered to a non-displaying player",
            slot=slot, state=self._states[slot], t_ms=t_ms,
        )

    # ------------------------------------------------------------------
    # Internal processes
    # ------------------------------------------------------------------

    def _driver(self):
        """Walk the churn schedule, in order, in sim time."""
        for event in self._resolved_events():
            if event.t_ms >= self.horizon_ms:
                break
            delay = event.t_ms - self.sim.now
            if delay > 0:
                yield delay
            if isinstance(event, JoinEvent):
                self.sim.spawn(self._admit(event.slot))
            elif isinstance(event, LeaveEvent):
                if self._states[event.slot] in (WARMING, ACTIVE, SUSPECT):
                    self._leave_pending[event.slot] = True
                else:
                    self.stale_events += 1
            elif isinstance(event, CrashEvent):
                if self._states[event.slot] in (JOINING, WARMING, ACTIVE, SUSPECT):
                    self._crash_pending[event.slot] = True
                else:
                    self.stale_events += 1

    def _admit(self, slot: int):
        """One join attempt: admission control, queueing, warm-up spawn."""
        if self._states[slot] not in (IDLE, LEFT, CRASHED):
            self.stale_events += 1
            return
        requested_ms = self.sim.now
        self.joins_requested += 1
        self._transition(slot, JOINING, "join-request")
        queued = False
        while True:
            if self._crash_pending[slot]:
                # Crash-mid-handshake before admission even finished.
                self._crash_pending[slot] = False
                self.joins_rejected += 1
                self.stats[slot].rejections += 1
                self._transition(slot, IDLE, "crashed-before-admission")
                return
            decision = self._admission.evaluate(self._constraint_roster(), slot)
            self.decisions.append((self.sim.now, slot, decision))
            if decision.admitted:
                break
            waited = self.sim.now - requested_ms
            out_of_patience = waited + ADMISSION_RETRY_MS > MAX_ADMISSION_WAIT_MS
            past_horizon = self.sim.now + ADMISSION_RETRY_MS >= self.horizon_ms
            if out_of_patience or past_horizon:
                self.joins_rejected += 1
                self.stats[slot].rejections += 1
                self._transition(slot, IDLE, f"rejected:{decision.reason}")
                return
            if not queued:
                queued = True
                self.joins_queued += 1
            yield ADMISSION_RETRY_MS
        self.joins_admitted += 1
        self.stats[slot].incarnations += 1
        rejoining = self.stats[slot].incarnations > 1
        self._join_requested_ms[slot] = requested_ms
        self._warm_started_ms[slot] = self.sim.now
        self._last_heartbeat[slot] = self.sim.now
        self._leave_pending[slot] = False
        self._transition(slot, WARMING, "admitted")
        self._spawn_client(slot, rejoining)

    def _monitor(self):
        """The heartbeat failure detector (SUSPECT, then evict)."""
        while self.sim.now < self.horizon_ms:
            yield MONITOR_INTERVAL_MS
            now = self.sim.now
            for slot in range(self.total_slots):
                state = self._states[slot]
                age = now - self._last_heartbeat[slot]
                if state in (WARMING, ACTIVE) and age > SUSPECT_AFTER_MS:
                    self._pre_suspect[slot] = state
                    self._transition(slot, SUSPECT, "heartbeat-timeout")
                elif state == SUSPECT and age > EVICT_AFTER_MS:
                    self.evictions += 1
                    self.stats[slot].evictions += 1
                    self._crash_pending[slot] = False
                    self._leave_pending[slot] = False
                    self._depart(slot, CRASHED, "evicted")

    # ------------------------------------------------------------------
    # State mutation (the only paths that touch _states)
    # ------------------------------------------------------------------

    def _depart(self, slot: int, to_state: str, cause: str) -> None:
        """Leave the PUN room (if in it), then transition out."""
        if self._in_room[slot]:
            self._in_room[slot] = False
            if self.pun is not None:
                self.pun.remove_player()
        self._transition(slot, to_state, cause)

    def _transition(self, slot: int, to_state: str, cause: str) -> MembershipEvent:
        """Apply one state change: epoch bump, log, invariants, trace."""
        from_state = self._states[slot]
        self.invariants.require(
            (from_state, to_state) in ALLOWED_TRANSITIONS,
            "illegal membership transition",
            slot=slot, from_state=from_state, to_state=to_state, cause=cause,
        )
        self._states[slot] = to_state
        self.epoch += 1
        active = tuple(
            s for s in range(self.total_slots) if self._states[s] == ACTIVE
        )
        previous = self.log.events[-1] if self.log.events else None
        event = MembershipEvent(
            epoch=self.epoch, t_ms=self.sim.now, slot=slot,
            from_state=from_state, to_state=to_state, cause=cause,
            active=active,
        )
        self.invariants.require(
            previous is None
            or (event.epoch > previous.epoch and event.t_ms >= previous.t_ms),
            "membership epochs must be monotone",
            epoch=event.epoch, t_ms=event.t_ms,
        )
        self.log.append(event)
        for s in active:
            self.stats[s].epochs_survived += 1
        if self.pun is not None:
            self.invariants.require(
                self.pun.n_players == sum(self._in_room),
                "FI fanout must match the room size",
                pun_players=self.pun.n_players, room=sum(self._in_room),
            )
        if cause == "warmed-up" and self._admission is not None:
            # Constraint 2 must hold for every epoch an admission creates.
            revalidation = self._admission.validate(self._constraint_roster())
            self.invariants.require(
                revalidation.admitted,
                "admitted epoch violates Constraint 2",
                slot=slot, epoch=self.epoch,
                utilization=revalidation.utilization,
            )
        if self.tracer is not None:
            self.tracer.instant(
                f"member.{to_state}", slot, "member", self.sim.now,
                cat="membership",
                args={"epoch": self.epoch, "from": from_state, "cause": cause},
            )
        if self._metrics is not None:
            self._members_gauge.set(float(len(active)))
            self._epochs_counter.set_total(float(self.epoch))
            if to_state == SUSPECT:
                self._suspects_counter.inc()
            if cause == "evicted":
                self._evictions_counter.inc()
        return event

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def summary(self) -> MembershipSummary:
        """Freeze the run's membership outcome."""
        return MembershipSummary(
            total_slots=self.total_slots,
            initial_players=self.n_initial,
            epochs=tuple(self.log.events),
            joins_requested=self.joins_requested,
            joins_admitted=self.joins_admitted,
            joins_rejected=self.joins_rejected,
            joins_queued=self.joins_queued,
            leaves=self.leaves,
            evictions=self.evictions,
            stale_events=self.stale_events,
            invariant_checks=self.invariants.checks,
            invariant_violations=self.invariants.violations,
            final_states=tuple(self._states),
            stats=tuple(self.stats[s] for s in range(self.total_slots)),
        )

"""Declarative session-churn schedules: who joins, leaves, or crashes when.

Churn is the membership counterpart of :class:`FaultSchedule`: a scripted
timeline, in simulated milliseconds, of players entering and exiting one
game session.  The same schedule drives Coterie, Multi-Furion, and
Thin-client through the :class:`~repro.session.SessionSupervisor`, so all
systems react to an identical churn timeline — mirroring how the
:class:`~repro.faults.FaultInjector` is shared.

Three event kinds cover the membership failure modes that matter:

* :class:`JoinEvent` — a join request.  ``slot=None`` asks for a fresh
  player slot (assigned deterministically at supervisor start);
  ``slot=k`` re-admits a previously known player (a *rejoin* — the slot
  keeps its trajectory but gets a new incarnation and a cold cache).
* :class:`LeaveEvent` — a graceful leave: the client announces departure
  and the roster shrinks immediately.
* :class:`CrashEvent` — a silent death: the client simply stops
  heartbeating and the failure detector must notice (SUSPECT → evict).

Schedules are plain frozen dataclasses and :meth:`ChurnSchedule.parse`
reads the compact CLI spec, e.g.
``"join@2000,join@2500:3,leave@5000:0,crash@4000:1,flap@3000-9000:2~800"``.
Churn events compose freely with link impairment and outage windows from
the fault schedule: a crashed player is detected through the same
heartbeat silence an outage produces, but — unlike an outage — it never
silently resumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union


def _check_time(t_ms: float) -> None:
    if t_ms < 0:
        raise ValueError("churn event time must be non-negative")


@dataclass(frozen=True)
class JoinEvent:
    """A join request at ``t_ms``; ``slot=None`` allocates a fresh slot."""

    t_ms: float
    slot: Optional[int] = None

    def __post_init__(self) -> None:
        _check_time(self.t_ms)
        if self.slot is not None and self.slot < 0:
            raise ValueError("slot must be non-negative")


@dataclass(frozen=True)
class LeaveEvent:
    """A graceful leave: ``slot`` announces departure at ``t_ms``."""

    t_ms: float
    slot: int

    def __post_init__(self) -> None:
        _check_time(self.t_ms)
        if self.slot < 0:
            raise ValueError("slot must be non-negative")


@dataclass(frozen=True)
class CrashEvent:
    """A silent crash: ``slot`` stops heartbeating at ``t_ms``."""

    t_ms: float
    slot: int

    def __post_init__(self) -> None:
        _check_time(self.t_ms)
        if self.slot < 0:
            raise ValueError("slot must be non-negative")


ChurnEvent = Union[JoinEvent, LeaveEvent, CrashEvent]

# Same-timestamp ordering: joins first (a rejoin at the instant of a
# leave would otherwise race), then leaves, then crashes.
_KIND_ORDER = {JoinEvent: 0, LeaveEvent: 1, CrashEvent: 2}


@dataclass(frozen=True)
class ChurnSchedule:
    """Everything scripted to change the roster during one run."""

    joins: Tuple[JoinEvent, ...] = ()
    leaves: Tuple[LeaveEvent, ...] = ()
    crashes: Tuple[CrashEvent, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.joins or self.leaves or self.crashes)

    def new_player_count(self) -> int:
        """How many fresh slots the schedule's anonymous joins need."""
        return sum(1 for j in self.joins if j.slot is None)

    def max_explicit_slot(self) -> int:
        """Largest slot referenced by name, or -1 when none is."""
        slots = [j.slot for j in self.joins if j.slot is not None]
        slots += [e.slot for e in self.leaves]
        slots += [e.slot for e in self.crashes]
        return max(slots) if slots else -1

    def events_sorted(self) -> List[ChurnEvent]:
        """All events in deterministic execution order."""
        events: List[ChurnEvent] = [*self.joins, *self.leaves, *self.crashes]
        return sorted(events, key=lambda e: (e.t_ms, _KIND_ORDER[type(e)]))

    def validate_slots(self, total_slots: int) -> None:
        """Reject explicit slot references outside the session's range."""
        worst = self.max_explicit_slot()
        if worst >= total_slots:
            raise ValueError(
                f"churn schedule references slot {worst} but the session "
                f"only has slots 0..{total_slots - 1}"
            )

    @classmethod
    def parse(cls, spec: str) -> "ChurnSchedule":
        """Parse the compact CLI syntax into a schedule.

        Comma-separated entries (times in simulated ms):

        * ``join@2000`` — one anonymous player asks to join at 2 s;
        * ``join@2000:3`` — a join storm: three anonymous joins at once;
        * ``rejoin@4000:1`` — slot 1 (previously left/crashed) rejoins;
        * ``leave@5000:0`` — slot 0 leaves gracefully;
        * ``crash@4000:1`` — slot 1 dies silently (heartbeats stop);
        * ``flap@3000-9000:2`` — slot 2 alternates leave/rejoin over the
          window (default 1000 ms half-period; ``~800`` overrides it).

        Any bad entry is rejected with one message naming its 1-based
        number, its text and the cause.  Two events of the same kind
        targeting the same slot at the same instant are a duplicate, and
        two flap windows on the same slot must not overlap (their
        interleaved leave/rejoin trains would silently corrupt each
        other's on/offline state); both errors also cite the first
        declaring entry.
        """
        joins: List[JoinEvent] = []
        leaves: List[LeaveEvent] = []
        crashes: List[CrashEvent] = []
        # Conflict detection: (kind, t_ms, slot) -> first declaring entry,
        # plus every flap window per slot.  Populated as entries parse so
        # errors can cite both colliding entry numbers.
        seen_slots: dict = {}
        flap_windows: List[Tuple[int, float, float, int]] = []

        def note_slot_event(kind_name: str, t_ms: float, slot: int,
                            index: int) -> None:
            """Reject a second same-kind event for one slot at one time."""
            key = (kind_name, t_ms, slot)
            first = seen_slots.get(key)
            if first is not None:
                raise ValueError(
                    f"duplicate {kind_name} for slot {slot} at {t_ms:g} ms "
                    f"(first declared in entry {first})"
                )
            seen_slots[key] = index

        def note_flap_window(slot: int, start_ms: float, end_ms: float,
                             index: int) -> None:
            """Reject overlapping flap windows targeting the same slot."""
            for other_slot, other_start, other_end, other_index in flap_windows:
                if other_slot != slot:
                    continue
                if start_ms < other_end and other_start < end_ms:
                    raise ValueError(
                        f"flap window {start_ms:g}-{end_ms:g} ms for slot "
                        f"{slot} overlaps the {other_start:g}-{other_end:g} ms "
                        f"window from entry {other_index}"
                    )
            flap_windows.append((slot, start_ms, end_ms, index))

        def add(index: int, entry: str) -> None:
            """Parse one entry onto its list; any failure — shape, argument
            conversion, conflict, or the event's own range check — is a
            ValueError naming the cause."""
            kind, at, rest = entry.partition("@")
            if not at:
                raise ValueError("expected kind@time[:arg]")
            kind = kind.strip().lower()
            when, _, arg = rest.partition(":")
            if kind == "join":
                t_ms = float(when)
                count = int(arg) if arg else 1
                if count < 1:
                    raise ValueError("join count must be >= 1")
                joins.extend(JoinEvent(t_ms) for _ in range(count))
            elif kind in ("rejoin", "leave", "crash"):
                t_ms, slot = float(when), int(arg)
                note_slot_event(kind, t_ms, slot, index)
                if kind == "rejoin":
                    joins.append(JoinEvent(t_ms, slot=slot))
                elif kind == "leave":
                    leaves.append(LeaveEvent(t_ms, slot=slot))
                else:
                    crashes.append(CrashEvent(t_ms, slot=slot))
            elif kind == "flap":
                start_s, dash, end_s = when.partition("-")
                if not dash:
                    raise ValueError("expected flap@start-end:slot[~half_period]")
                slot_s, _, period_s = arg.partition("~")
                start_ms, end_ms = float(start_s), float(end_s)
                if end_ms <= start_ms:
                    raise ValueError("flap window must satisfy start < end")
                slot = int(slot_s)
                half_period = float(period_s) if period_s else 1000.0
                if half_period <= 0:
                    raise ValueError("flap period must be positive")
                note_flap_window(slot, start_ms, end_ms, index)
                # Expand into an alternating leave / rejoin train; the
                # generated events register for duplicate detection so
                # a flap silently colliding with an explicit leave /
                # rejoin is rejected too.
                t, leaving = start_ms, True
                while t < end_ms:
                    if leaving:
                        note_slot_event("leave", t, slot, index)
                        leaves.append(LeaveEvent(t, slot=slot))
                    else:
                        note_slot_event("rejoin", t, slot, index)
                        joins.append(JoinEvent(t, slot=slot))
                    leaving = not leaving
                    t += half_period
                if not leaving:
                    # Never strand the player offline at window end.
                    note_slot_event("rejoin", end_ms, slot, index)
                    joins.append(JoinEvent(end_ms, slot=slot))
            else:
                raise ValueError(
                    f"unknown churn kind {kind!r}; "
                    "use join/rejoin/leave/crash/flap"
                )

        for index, raw in enumerate(spec.split(","), start=1):
            entry = raw.strip()
            if not entry:
                continue
            try:
                add(index, entry)
            except ValueError as exc:
                raise ValueError(
                    f"churn spec entry {index} ({entry!r}): {exc}"
                ) from exc
        return cls(joins=tuple(joins), leaves=tuple(leaves),
                   crashes=tuple(crashes))

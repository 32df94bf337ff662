"""The per-player membership state machine and the epoch log.

Player lifecycle (the tentpole of the supervision subsystem)::

    IDLE ──join──▶ JOINING ──admitted──▶ WARMING ──warmed-up──▶ ACTIVE
      ▲               │                    │  ▲                  │  ▲
      └──rejected─────┘                    ▼  └────recovered─────▼  │
                                         SUSPECT ◀───heartbeat───────┘
                                           │         timeout
              LEFT ◀──graceful leave── (WARMING/ACTIVE/SUSPECT)
           CRASHED ◀──evicted────────── SUSPECT

``IDLE`` is the pre-session (and post-rejection) state: the slot exists —
its trajectory is generated, its metrics collector allocated — but the
player is not part of the room.  ``LEFT`` and ``CRASHED`` are terminal
for one *incarnation*; a rejoin starts a new incarnation from the same
slot (fresh cache, same trajectory), which is what distinguishes a
deliberate rejoin from PR 2's outage windows, where a "crashed" player
silently resumed with the same identity.

Every transition bumps the session-wide *membership epoch* — a
monotonically increasing counter — and appends a :class:`MembershipEvent`
to the epoch log, so two runs of the same (schedule, seed) produce
byte-identical logs (asserted by the determinism tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

# Lifecycle states.
IDLE = "idle"
JOINING = "joining"
WARMING = "warming"
ACTIVE = "active"
SUSPECT = "suspect"
LEFT = "left"
CRASHED = "crashed"

ALL_STATES = (IDLE, JOINING, WARMING, ACTIVE, SUSPECT, LEFT, CRASHED)

# States that count toward the PUN room (FI fanout) are tracked
# separately by the supervisor (a SUSPECT player reached via WARMING was
# never in the room); these are the states in which a slot may still
# *display* frames.
DISPLAYING = frozenset({ACTIVE, SUSPECT})

# The legal edges of the state machine; anything else is a supervisor
# bug and trips the invariant checker.
ALLOWED_TRANSITIONS = frozenset({
    (IDLE, JOINING),       # join request received
    (IDLE, ACTIVE),        # initial roster at session start
    (JOINING, WARMING),    # admission control said yes
    (JOINING, IDLE),       # admission control said no (may retry later)
    (WARMING, ACTIVE),     # warm-up streamed the working set
    (WARMING, SUSPECT),    # heartbeats stopped mid-handshake
    (WARMING, LEFT),       # graceful leave before activation
    (ACTIVE, SUSPECT),     # heartbeat timeout
    (ACTIVE, LEFT),        # graceful leave
    (SUSPECT, ACTIVE),     # heartbeat resumed (was active before)
    (SUSPECT, WARMING),    # heartbeat resumed (was still warming)
    (SUSPECT, LEFT),       # graceful leave while suspected
    (SUSPECT, CRASHED),    # evicted by the failure detector
    (LEFT, JOINING),       # rejoin: new incarnation
    (CRASHED, JOINING),    # rejoin after a crash: new incarnation
})


@dataclass(frozen=True)
class MembershipEvent:
    """One membership epoch: a single slot's state transition."""

    epoch: int
    t_ms: float
    slot: int
    from_state: str
    to_state: str
    cause: str
    # The ACTIVE roster *after* this transition (Constraint 2's domain).
    active: Tuple[int, ...]

    def key(self) -> Tuple:
        """Comparable fingerprint for determinism assertions."""
        return (self.epoch, self.t_ms, self.slot, self.from_state,
                self.to_state, self.cause, self.active)


@dataclass
class SlotStats:
    """Per-slot membership statistics, aggregated over incarnations."""

    incarnations: int = 0  # admissions (initial presence counts as one)
    join_latency_ms: float = 0.0  # join request -> ACTIVE, summed
    warmup_ms: float = 0.0  # WARMING -> ACTIVE, summed
    epochs_survived: int = 0  # epochs during which this slot was ACTIVE
    evictions: int = 0  # times the failure detector evicted this slot
    rejections: int = 0  # join requests refused by admission control


def new_stats(total_slots: int) -> Dict[int, SlotStats]:
    """One zeroed stats record per slot."""
    return {slot: SlotStats() for slot in range(total_slots)}


@dataclass
class EpochLog:
    """Append-only transition log; the supervisor's public history."""

    events: list = field(default_factory=list)

    def append(self, event: MembershipEvent) -> None:
        """Record one membership transition at the end of the log."""
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def fingerprint(self) -> Tuple[Tuple, ...]:
        """Byte-comparable log identity (determinism tests)."""
        return tuple(event.key() for event in self.events)

"""Session supervision: membership, failure detection, admission control.

Makes player membership a first-class, mutable, fault-tolerant part of
every run: a :class:`SessionSupervisor` owns the roster, a heartbeat
failure detector notices crashed clients, and admission control
re-validates the paper's Constraints 1 and 2 for every join before a
late joiner warms its cache and turns ACTIVE.
"""

from .admission import AdmissionController, AdmissionDecision
from .invariants import InvariantChecker, InvariantViolation
from .membership import (
    ACTIVE,
    ALL_STATES,
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
)
from .supervisor import MembershipSummary, SessionSupervisor, SupervisorConfig
from .sync import (
    DesyncAlarm,
    SlotSyncStats,
    SyncValidator,
    cache_state_digest,
    state_digest,
)

__all__ = [
    "ACTIVE",
    "ALL_STATES",
    "ALLOWED_TRANSITIONS",
    "AdmissionController",
    "AdmissionDecision",
    "CRASHED",
    "DesyncAlarm",
    "DISPLAYING",
    "EpochLog",
    "IDLE",
    "InvariantChecker",
    "InvariantViolation",
    "JOINING",
    "LEFT",
    "MembershipEvent",
    "MembershipSummary",
    "SessionSupervisor",
    "SlotStats",
    "SlotSyncStats",
    "SupervisorConfig",
    "SUSPECT",
    "SyncValidator",
    "WARMING",
    "cache_state_digest",
    "state_digest",
]

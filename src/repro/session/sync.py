"""Cross-peer desync detection over deterministic state hashes.

Coterie's correctness story for speculation is GGPO's: speculate
eagerly, *hash deterministically*, detect divergence, converge
bit-identically.  The :class:`SyncValidator` implements the detection
leg: on a fixed cadence every peer computes a 64-bit FNV-1a digest of
its authoritative session state — last displayed pose (float64 bit
patterns), displayed-frame oracle digest, and the cache roster in
insertion order — and exchanges it over the PUN fast-path channel.  A
submitted hash that disagrees with the authoritative recomputation is a
desync: the validator raises a :class:`DesyncAlarm` within one cadence
of the divergence (bounded detection latency) and, when resync is
enabled, asks the frame loop to re-warm from authoritative state (a
blocking fetch with the PR 2 retry/backoff discipline, plus dropping
every unconfirmed speculative cache entry).

Because both the submitted and authoritative digests derive from the
same deterministic simulation state, a clean run can never raise a
false alarm — only a scripted :class:`~repro.faults.DesyncInjection`
(which corrupts one peer's submitted hash in flight) or a genuine
nondeterminism bug produces a mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from ..predict.digest import digest_ints, fnv1a, int_bits, pose_digest

if TYPE_CHECKING:
    from ..telemetry import SpanTracer

#: XOR mask applied to a submitted hash by an injected desync — any
#: single-bit perturbation would do; a wide mask makes hexdumps obvious.
CORRUPTION_MASK = 0xDEAD_BEEF_DEAD_BEEF


@dataclass(frozen=True)
class SyncConfig:
    """Knobs for the cross-peer sync validator.

    ``cadence_ms`` is the digest-exchange period (and therefore the
    detection-latency bound); ``digest_bytes`` the wire size of one
    peer's state-hash packet (header + 64-bit hash + pose summary);
    ``resync`` enables the recovery protocol on alarm.
    """

    cadence_ms: float = 250.0
    digest_bytes: int = 40
    resync: bool = True

    def __post_init__(self) -> None:
        if self.cadence_ms <= 0:
            raise ValueError("cadence_ms must be positive")
        if self.digest_bytes < 8:
            raise ValueError("digest_bytes must be >= 8")


@dataclass(frozen=True)
class DesyncAlarm:
    """One detected cross-peer state divergence."""

    t_ms: float  # validation round that caught it
    slot: int  # the divergent peer
    expected: int  # authoritative state hash
    observed: int  # what the peer submitted
    detection_ms: float  # divergence instant -> this round


@dataclass
class SlotSyncStats:
    """Per-slot sync-validation outcome counters."""

    alarms: int = 0
    max_detection_ms: float = 0.0
    resyncs: int = 0
    recovery_ms: float = 0.0  # alarm -> next clean round, summed


def cache_state_digest(cache) -> int:
    """Digest a frame cache's roster: grid points in insertion order.

    Covers each resident entry's grid point, wire size, speculative
    flag, and oracle digest — two caches that disagree in any entry,
    order, or confirmation state hash differently.
    """
    h = digest_ints([len(cache)])
    for frame in cache.frames():
        h = fnv1a(int_bits(frame.grid_point[0], frame.grid_point[1],
                           frame.size_bytes, 1 if frame.speculative else 0), h)
        h = digest_ints([frame.digest], seed=h)
    return h


def state_digest(
    t_ms: float, x: float, y: float, heading: float,
    frame_digest: int, cache, seed_slot: int,
) -> int:
    """One peer's full per-round state hash (pose + frame + cache roster)."""
    h = pose_digest(t_ms, x, y, heading)
    h = digest_ints([seed_slot, frame_digest], seed=h)
    h = digest_ints([cache_state_digest(cache)], seed=h)
    return h


@dataclass
class SyncValidator:
    """Fixed-cadence cross-peer state-hash exchange and alarm engine.

    The owning system loop wires the callbacks:

    * ``roster`` — the slots currently active;
    * ``authoritative`` — recompute a slot's state hash from live state;
    * ``injected_at`` — scripted desync time for a slot in a window, or
      None (the injection corrupts that slot's *submitted* hash);
    * ``record_bytes`` — account the digest exchange on the shared link;
    * ``request_resync`` — ask the frame loop to re-warm a slot.
    """

    sim: object
    config: SyncConfig
    horizon_ms: float
    n_slots: int
    roster: Callable[[], Iterable[int]]
    authoritative: Callable[[int], int]
    injected_at: Callable[[int, float, float], Optional[float]]
    record_bytes: Callable[[int], None]
    request_resync: Callable[[int], None]
    tracer: Optional[SpanTracer] = None
    rounds: int = 0
    alarms: List[DesyncAlarm] = field(default_factory=list)
    stats: List[SlotSyncStats] = field(default_factory=list)
    _last_round_ms: float = 0.0
    _pending_recovery: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.stats:
            self.stats = [SlotSyncStats() for _ in range(self.n_slots)]

    def process(self):
        """The validator's sim process: one exchange every cadence."""
        while self.sim.now + self.config.cadence_ms <= self.horizon_ms:
            yield self.config.cadence_ms
            self.run_round()

    def run_round(self) -> None:
        """Exchange state hashes once and judge every active peer."""
        now = self.sim.now
        peers = list(self.roster())
        if peers:
            # Each peer uploads its packet and the server fans it out to
            # the others — the PUN fast-path accounting model.
            n = len(peers)
            self.record_bytes(self.config.digest_bytes * n * max(1, n - 1))
            for slot in peers:
                expected = self.authoritative(slot)
                observed = expected
                injected = self.injected_at(slot, self._last_round_ms, now)
                if injected is not None:
                    observed = expected ^ CORRUPTION_MASK
                if observed != expected:
                    self._alarm(slot, now, expected, observed, injected)
                elif slot in self._pending_recovery:
                    # First clean round after an alarm: recovered.
                    alarm_ms = self._pending_recovery.pop(slot)
                    stats = self.stats[slot]
                    stats.recovery_ms += now - alarm_ms
                    if self.tracer is not None:
                        self.tracer.instant(
                            "sync.recovered", slot, "net", now, cat="sync",
                            args={"recovery_ms": round(now - alarm_ms, 4)},
                        )
        self.rounds += 1
        self._last_round_ms = now

    def _alarm(
        self,
        slot: int,
        now: float,
        expected: int,
        observed: int,
        injected: Optional[float],
    ) -> None:
        """Raise a desync alarm and kick off resync for ``slot``."""
        detection_ms = now - injected if injected is not None else 0.0
        alarm = DesyncAlarm(
            t_ms=now, slot=slot, expected=expected, observed=observed,
            detection_ms=detection_ms,
        )
        self.alarms.append(alarm)
        stats = self.stats[slot]
        stats.alarms += 1
        stats.max_detection_ms = max(stats.max_detection_ms, detection_ms)
        if self.tracer is not None:
            self.tracer.instant(
                "sync.alarm", slot, "net", now, cat="sync",
                args={"expected": f"{expected:016x}",
                      "observed": f"{observed:016x}",
                      "detection_ms": round(detection_ms, 4)},
            )
        if self.config.resync:
            stats.resyncs += 1
            self._pending_recovery.setdefault(slot, now)
            self.request_resync(slot)

    @property
    def total_alarms(self) -> int:
        """Alarms raised across every peer."""
        return len(self.alarms)

    def max_detection_ms(self) -> float:
        """Worst injection-to-alarm latency seen (0 when no alarms)."""
        if not self.alarms:
            return 0.0
        return max(alarm.detection_ms for alarm in self.alarms)

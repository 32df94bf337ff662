"""Unit tests for the cross-peer desync validator and state digests.

Detection must be exact: a corrupted submitted hash raises an alarm on
the next validation round (bounded by the cadence), a clean exchange
never does, recovery is stamped on the first clean round after an
alarm, and the digest-exchange traffic is accounted on every round.
The state-digest helpers must distinguish caches that differ in any
entry, order, size, confirmation state, or oracle digest.
"""

from repro.core.cache import CachedFrame, FrameCache
from repro.geometry import Vec2
from repro.session import (
    SlotSyncStats,
    SyncValidator,
    cache_state_digest,
    state_digest,
)
from repro.session.sync import CADENCE_MS, CORRUPTION_MASK, DIGEST_BYTES


class FakeSim:
    """Just enough of the simulator for driving run_round by hand."""

    def __init__(self):
        self.now = 0.0


def make_frame(grid_point, speculative=False, digest=0, size_bytes=100):
    return CachedFrame(
        grid_point=grid_point,
        position=Vec2(float(grid_point[0]), float(grid_point[1])),
        leaf="leaf-a",
        near_ids=frozenset({1}),
        payload=None,
        size_bytes=size_bytes,
        inserted_ms=0.0,
        last_used_ms=0.0,
        speculative=speculative,
        digest=digest,
    )


def make_validator(sim, n_slots=2, injected=None, hashes=None):
    """A validator over constant authoritative hashes and a fault map.

    ``injected`` maps slot -> injection t_ms; the injection fires in the
    round whose window covers it, mirroring FaultInjector.desync_event_ms.
    """
    injected = injected or {}
    hashes = hashes or {}
    recorded = []
    resyncs = []

    def injected_at(slot, since_ms, until_ms):
        t = injected.get(slot)
        if t is not None and since_ms < t <= until_ms:
            return t
        return None

    validator = SyncValidator(
        sim=sim,
        horizon_ms=10_000.0,
        n_slots=n_slots,
        roster=lambda: range(n_slots),
        authoritative=lambda slot: hashes.get(slot, 0x1234 + slot),
        injected_at=injected_at,
        record_bytes=recorded.append,
        request_resync=resyncs.append,
    )
    return validator, recorded, resyncs


class TestSyncConfig:
    def test_defaults_valid(self):
        # The rounds below are 250 ms apart; a packet holds a 64-bit hash.
        assert CADENCE_MS == 250.0
        assert DIGEST_BYTES >= 8


class TestCleanRounds:
    def test_no_alarms_and_traffic_accounted(self):
        sim = FakeSim()
        validator, recorded, resyncs = make_validator(sim, n_slots=3)
        for round_no in range(4):
            sim.now = (round_no + 1) * 250.0
            validator.run_round()
        assert validator.total_alarms == 0
        assert resyncs == []
        # 3 peers upload, server fans out to the other 2: 40 * 3 * 2.
        assert recorded == [240] * 4
        assert validator.rounds == 4

    def test_empty_roster_is_a_noop(self):
        sim = FakeSim()
        validator, recorded, _ = make_validator(sim, n_slots=0)
        sim.now = 250.0
        validator.run_round()
        assert recorded == []
        assert validator.total_alarms == 0


class TestDetection:
    def test_injected_desync_detected_within_one_cadence(self):
        sim = FakeSim()
        validator, _, resyncs = make_validator(sim, injected={1: 600.0})
        for round_no in range(4):
            sim.now = (round_no + 1) * 250.0
            validator.run_round()
        assert validator.total_alarms == 1
        alarm = validator.alarms[0]
        assert alarm.slot == 1
        assert alarm.t_ms == 750.0  # first round boundary after 600 ms
        assert alarm.detection_ms == 150.0
        assert alarm.detection_ms <= 250.0
        assert alarm.observed == alarm.expected ^ CORRUPTION_MASK
        assert resyncs == [1]

    def test_per_slot_stats_and_recovery(self):
        sim = FakeSim()
        validator, _, _ = make_validator(sim, injected={0: 400.0})
        for round_no in range(4):
            sim.now = (round_no + 1) * 250.0
            validator.run_round()
        stats = validator.stats[0]
        assert isinstance(stats, SlotSyncStats)
        assert stats.alarms == 1
        assert stats.resyncs == 1
        assert stats.max_detection_ms == 100.0
        # Alarm at 500 ms, next clean round at 750 ms: 250 ms to recover.
        assert stats.recovery_ms == 250.0
        # The clean slot is untouched.
        assert validator.stats[1] == SlotSyncStats()

    def test_max_detection_ms_zero_without_alarms(self):
        sim = FakeSim()
        validator, _, _ = make_validator(sim)
        assert validator.max_detection_ms() == 0.0


class TestProcessCadence:
    def test_process_yields_until_horizon(self):
        sim = FakeSim()
        validator, _, _ = make_validator(sim)
        validator.horizon_ms = 900.0
        gen = validator.process()
        delays = []
        try:
            while True:
                delays.append(next(gen))
                sim.now += delays[-1]
                # run_round happens inside process() after each yield
        except StopIteration:
            pass
        assert delays == [CADENCE_MS] * 3
        assert sim.now == 3 * CADENCE_MS


class TestCacheStateDigest:
    def test_sensitive_to_membership_order_and_flags(self):
        def digest_of(*frames):
            cache = FrameCache(capacity_bytes=1 << 20)
            for frame in frames:
                cache.insert(frame)
            return cache_state_digest(cache)

        base = digest_of(make_frame((0, 0)), make_frame((1, 1)))
        assert digest_of(make_frame((1, 1)), make_frame((0, 0))) != base
        assert digest_of(make_frame((0, 0))) != base
        assert digest_of(make_frame((0, 0)), make_frame((1, 2))) != base
        assert digest_of(
            make_frame((0, 0)), make_frame((1, 1), size_bytes=101)
        ) != base
        assert digest_of(
            make_frame((0, 0)), make_frame((1, 1), speculative=True)
        ) != base
        assert digest_of(
            make_frame((0, 0)), make_frame((1, 1), digest=7)
        ) != base
        assert digest_of(make_frame((0, 0)), make_frame((1, 1))) == base

    def test_state_digest_sensitive_to_slot_and_frame(self):
        cache = FrameCache(capacity_bytes=1 << 20)
        cache.insert(make_frame((0, 0)))
        base = state_digest(100.0, 1.0, 2.0, 0.5, 42, cache, seed_slot=0)
        assert state_digest(100.0, 1.0, 2.0, 0.5, 42, cache, seed_slot=1) != base
        assert state_digest(100.0, 1.0, 2.0, 0.5, 43, cache, seed_slot=0) != base
        assert state_digest(101.0, 1.0, 2.0, 0.5, 42, cache, seed_slot=0) != base
        assert state_digest(100.0, 1.0, 2.0, 0.5, 42, cache, seed_slot=0) == base

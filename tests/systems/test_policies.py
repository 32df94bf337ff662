"""The seams of the shared frame loop: which policies a config constructs,
what a rejoin resets, and the one timeout/abort/backoff retry routine.

Behaviour *through* these seams is pinned elsewhere (the golden matrix,
``test_resilience``/``test_adaptive``/``test_churn``/``test_speculation``);
these tests cover only what nothing else does.
"""

import pytest

from repro.faults import ChurnSchedule, FaultSchedule
from repro.net import ImpairmentConfig
from repro.predict import PredictConfig
from repro.systems import Session, SessionConfig, prepare_artifacts, run_coterie
from repro.systems.coterie import CoterieStrategy
from repro.systems.policies import Degradation, Speculation, SyncCheck, fetch_with_retries
from repro.world import load_game

EVERYTHING = dict(
    faults=FaultSchedule.parse("stall@0-100"), predict=PredictConfig(), sync=True
)


@pytest.fixture(scope="module")
def pool():
    world = load_game("pool")
    return world, prepare_artifacts(world, SessionConfig(duration_s=1.0, seed=1))


def strategy_for(pool, **config_kwargs):
    world, artifacts = pool
    session = Session(world, 2, SessionConfig(duration_s=1.0, seed=1, **config_kwargs))
    return CoterieStrategy(session, artifacts)


class TestPolicyConstruction:
    def test_default_config_constructs_no_policy(self, pool):
        strategy = strategy_for(pool)
        assert strategy.policies == []
        # ... and no hook: the frame runs the clean path's calls only.
        assert strategy.pre_plan == strategy.post_plan == strategy.post_fetch == []
        assert strategy.on_finish == []
        assert strategy.display == strategy._display_clean
        assert strategy.scorer is None

    @pytest.mark.parametrize("config_kwargs, expected", [
        (dict(faults=FaultSchedule.parse("stall@0-100")), [Degradation]),
        (dict(impairment=ImpairmentConfig(seed=1)), [Degradation]),
        (dict(prefetch_deadline_ms=12.0), [Degradation]),
        (dict(adapt=True), [Degradation]),
        (dict(predict=PredictConfig()), [Speculation]),
        (dict(sync=True), [SyncCheck]),
        (EVERYTHING, [Degradation, Speculation, SyncCheck]),
    ], ids=["faults", "impairment", "deadline", "adapt", "predict", "sync", "all"])
    def test_each_config_adds_exactly_its_policy(self, pool, config_kwargs, expected):
        strategy = strategy_for(pool, **config_kwargs)
        assert [type(policy) for policy in strategy.policies] == expected


def slot_state(policy, slot, n_slots):
    """The policy's per-slot state: element ``slot`` of each per-slot list
    (a predictor compares by its attributes)."""
    state = {}
    for name, value in vars(policy).items():
        if isinstance(value, list) and len(value) == n_slots:
            item = value[slot]
            state[name] = vars(item) if hasattr(item, "__dict__") else item
    return state


class TestRejoinReset:
    def test_reset_restores_every_policys_fresh_slot_state(self, pool):
        strategy = strategy_for(pool, **EVERYTHING)
        fresh = strategy_for(pool, **EVERYTHING)
        n_slots = strategy.session.total_slots
        degradation, speculation, sync_check = strategy.policies
        # Dirty slot 1 the way a life does: a background fetch in flight
        # and a re-warm owed, a trained predictor with a speculative
        # fetch out, a resync owed and a displayed pose on record.
        degradation.pending_fetch[1] = object()
        degradation.reconnected(1)
        sample = strategy.session.position_at(1, 0.0)
        speculation.observe(1, 0.0, sample)
        speculation.observe(1, 16.0, strategy.session.position_at(1, 16.0))
        speculation.spec_pending[1] = object()
        sync_check.request_resync(1)
        sync_check.last_display[1] = (16.0, 1.0, 2.0, 0.5, 99)
        for policy, fresh_policy in zip(strategy.policies, fresh.policies):
            assert slot_state(policy, 1, n_slots) != slot_state(fresh_policy, 1, n_slots)
        strategy.reset(1)
        for policy, fresh_policy in zip(strategy.policies, fresh.policies):
            state = slot_state(policy, 1, n_slots)
            assert state and state == slot_state(fresh_policy, 1, n_slots)
            # ... and the other slot is untouched.
            assert slot_state(policy, 0, n_slots) == slot_state(fresh_policy, 0, n_slots)

    def test_loop_resets_the_strategy_on_rejoin_only(self, pool, monkeypatch):
        world, artifacts = pool
        resets = []
        original = CoterieStrategy.reset

        def recording_reset(self, slot):
            resets.append(slot)
            original(self, slot)

        monkeypatch.setattr(CoterieStrategy, "reset", recording_reset)
        config = SessionConfig(
            duration_s=1.5, seed=1, **EVERYTHING,
            churn=ChurnSchedule.parse("join@200,leave@300:1,rejoin@700:1"),
        )
        result = run_coterie(world, 2, config, artifacts)
        assert result.membership.stats[1].incarnations == 2
        assert resets == [1]  # the first-time joiner (slot 2) is not reset

    def test_dead_incarnation_speculative_fetch_is_withdrawn(self, pool):
        """A speculative transfer belongs to the life that issued it.  Slot
        1 speculates, rejoins with that transfer still in flight, and
        speculates again; the old transfer lands first.  It must withdraw
        (the rejoiner's cache was cleared for a reason) and leave the new
        life's fetch pending, which then lands normally.  The end-to-end
        twin is ``test_churn``'s background-fetch case; the fluid-share
        link never lands an older equal-sized transfer after a newer one,
        so this ordering needs the stub link."""
        strategy = strategy_for(pool, predict=PredictConfig())
        (speculation,) = strategy.policies
        session = strategy.session
        sim = session.sim
        session.link = StubLink(sim, [250.0, 100.0])

        def speculate_at(t0):
            sim.run_until(t0)
            for t in (t0 - 32.0, t0 - 16.0, t0):
                speculation.observe(1, t, session.position_at(1, t))
            speculation.speculate(1, t0, session.position_at(1, t0), None, None)

        speculate_at(100.0)  # first life: lands at 350
        sim.run_until(300.0)
        strategy.reset(1)  # the rejoin
        speculate_at(320.0)  # second life: lands at 420
        assert session.link.issued_at == [100.0, 320.0]
        sim.run_until(400.0)
        assert len(strategy.caches[1]) == 0  # the dead life's fetch withdrew ...
        assert speculation.spec_pending[1] is not None  # ... leaving ours in flight
        sim.run_until(500.0)
        (landed,) = strategy.caches[1].frames()
        assert (landed.inserted_ms, landed.speculative) == (420.0, True)
        assert speculation.spec_pending[1] is None


class StubLink:
    """A link whose transfers land after scripted delays (None: never)."""

    def __init__(self, sim, delays):
        self.sim = sim
        self.delays = list(delays)
        self.issued_at = []
        self.aborted = 0

    def transfer(self, size_bytes, tag="be"):
        self.issued_at.append(self.sim.now)
        delay = self.delays.pop(0)
        return self.sim.event() if delay is None else self.sim.timeout(delay)

    def abort(self, event):
        self.aborted += 1
        return not event.triggered


class TestFetchWithRetries:
    """Blocking and background callers share one retry routine."""

    CONFIG = dict(fetch_timeout_ms=40.0, fetch_max_retries=3, fetch_backoff_cap_ms=100.0)

    def run(self, delays, blocking):
        world = load_game("pool")
        session = Session(world, 1, SessionConfig(duration_s=1.0, seed=1, **self.CONFIG))
        link = session.link = StubLink(session.sim, delays)
        outcome = {}

        def process():
            first = link.transfer(1000)
            ev, attempts = yield from fetch_with_retries(session, 0, 1000, first, blocking)
            outcome.update(landed=ev is not None, attempts=attempts, at=session.sim.now)

        session.sim.spawn(process())
        session.sim.run_until(5000.0)
        return outcome, link, session.collectors[0].resilience

    @pytest.mark.parametrize("blocking", [True, False])
    def test_lands_first_try(self, blocking):
        outcome, link, resilience = self.run([10.0], blocking)
        assert outcome == dict(landed=True, attempts=1, at=10.0)
        assert link.aborted == 0
        assert (resilience.fetch_retries, resilience.fetches_abandoned) == (0, 0)

    @pytest.mark.parametrize("blocking", [True, False])
    def test_lands_after_aborts_with_doubled_then_capped_timeouts(self, blocking):
        outcome, link, resilience = self.run([None, None, None, 5.0], blocking)
        # Patience 40 -> 80 -> 100 (capped, not 160): re-issues at 40,
        # 120 and 220 ms; the fourth attempt lands 5 ms later.
        assert link.issued_at == [0.0, 40.0, 120.0, 220.0]
        assert outcome == dict(landed=True, attempts=4, at=225.0)
        assert link.aborted == 3
        assert (resilience.fetch_retries, resilience.fetches_abandoned) == (3, 0)

    @pytest.mark.parametrize("blocking", [True, False])
    def test_abandons_after_the_retry_budget(self, blocking):
        outcome, link, resilience = self.run([None] * 4, blocking)
        assert outcome == dict(landed=False, attempts=4, at=320.0)
        assert link.aborted == 4
        assert (resilience.fetch_retries, resilience.fetches_abandoned) == (3, 1)

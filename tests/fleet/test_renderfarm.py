"""Tests for the shared render farm's scheduling discipline."""

import pytest

from repro.fleet import RenderFarm
from repro.sim import Simulator


def make_farm(sim, **kwargs):
    defaults = dict(gpu_slots=1, render_ms=10.0, dispatch_overhead_ms=2.0,
                    batch_max=4)
    defaults.update(kwargs)
    return RenderFarm(sim, **defaults)


class TestValidation:
    def test_bad_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            RenderFarm(sim, gpu_slots=0)
        with pytest.raises(ValueError):
            RenderFarm(sim, render_ms=0.0)
        with pytest.raises(ValueError):
            RenderFarm(sim, dispatch_overhead_ms=-1.0)
        with pytest.raises(ValueError):
            RenderFarm(sim, batch_max=0)


class TestCompletion:
    def test_single_render_timing(self):
        sim = Simulator()
        farm = make_farm(sim)
        done = farm.submit(0, "addr-a", deadline_ms=100.0)
        sim.run()
        # One batch of one: overhead (2) + render (10).
        assert done.triggered and done.value == 12.0
        snap = farm.snapshot()
        assert snap.renders == 1 and snap.batches == 1
        assert snap.deadline_misses == 0
        assert snap.mean_wait_ms == 12.0

    def test_batch_amortizes_overhead(self):
        sim = Simulator()
        farm = make_farm(sim, gpu_slots=1, batch_max=4)
        # Occupy the slot so the next four requests queue and batch.
        farm.submit(0, "warm", deadline_ms=1000.0)
        events = [farm.submit(0, f"addr-{i}", deadline_ms=1000.0)
                  for i in range(4)]
        sim.run()
        snap = farm.snapshot()
        # warm batch (1) + one batch of four.
        assert snap.batches == 2
        assert snap.renders == 5
        assert snap.mean_batch == 2.5
        # The four-batch lands at 12 (warm) + 2 + 4*10 = 54.
        assert all(e.value == 54.0 for e in events)

    def test_completion_hook_runs_per_request(self):
        sim = Simulator()
        landed = []
        farm = RenderFarm(sim, gpu_slots=2, render_ms=5.0,
                          dispatch_overhead_ms=0.0, batch_max=2,
                          completion_hook=lambda r: landed.append(r.address))
        for i in range(3):
            farm.submit(0, f"addr-{i}", deadline_ms=100.0)
        sim.run()
        assert sorted(landed) == ["addr-0", "addr-1", "addr-2"]

    def test_deadline_misses_counted(self):
        sim = Simulator()
        farm = make_farm(sim, gpu_slots=1, batch_max=1)
        farm.submit(0, "a", deadline_ms=12.0)   # lands exactly at 12: ok
        farm.submit(0, "b", deadline_ms=12.0)   # lands at 24: missed
        sim.run()
        assert farm.snapshot().deadline_misses == 1


class TestPriority:
    def test_earliest_deadline_first(self):
        sim = Simulator()
        farm = make_farm(sim, gpu_slots=1, batch_max=1)
        farm.submit(0, "warm", deadline_ms=0.0)
        late = farm.submit(1, "late", deadline_ms=500.0)
        soon = farm.submit(2, "soon", deadline_ms=50.0)
        sim.run()
        assert soon.value < late.value

    def test_fairness_breaks_deadline_ties(self):
        sim = Simulator()
        farm = make_farm(sim, gpu_slots=1, batch_max=1)
        # Session 0 accumulates served credit first.
        farm.submit(0, "s0-warm", deadline_ms=0.0)
        sim.run()
        assert farm.served(0) == 1
        # Occupy the slot so both contenders are pending at dispatch
        # time, then submit session 0 first.  Equal deadlines: the
        # session with less served credit goes first anyway.
        farm.submit(3, "blocker", deadline_ms=0.0)
        first = farm.submit(0, "s0-next", deadline_ms=500.0)
        second = farm.submit(1, "s1-first", deadline_ms=500.0)
        sim.run()
        assert second.value < first.value

    def test_fifo_breaks_remaining_ties(self):
        sim = Simulator()
        farm = make_farm(sim, gpu_slots=1, batch_max=1)
        farm.submit(0, "warm", deadline_ms=0.0)
        a = farm.submit(1, "a", deadline_ms=500.0)
        b = farm.submit(2, "b", deadline_ms=500.0)
        sim.run()
        assert a.value < b.value


class TestCoalescing:
    def test_duplicate_address_coalesces(self):
        sim = Simulator()
        farm = make_farm(sim, gpu_slots=1, batch_max=1)
        farm.submit(0, "warm", deadline_ms=0.0)
        first = farm.submit(1, "shared-addr", deadline_ms=500.0)
        second = farm.submit(2, "shared-addr", deadline_ms=500.0)
        sim.run()
        assert first is second
        snap = farm.snapshot()
        assert snap.coalesced == 1
        assert snap.renders == 2  # warm + one shared render

    def test_no_coalescing_when_isolated(self):
        sim = Simulator()
        farm = make_farm(sim, cross_session=False)
        a = farm.submit(1, "same-addr", deadline_ms=500.0)
        b = farm.submit(2, "same-addr", deadline_ms=500.0)
        sim.run()
        assert a is not b
        assert farm.snapshot().coalesced == 0
        assert farm.snapshot().renders == 2

    def test_completed_render_does_not_coalesce(self):
        sim = Simulator()
        farm = make_farm(sim)
        farm.submit(0, "addr", deadline_ms=100.0)
        sim.run()
        farm.submit(1, "addr", deadline_ms=100.0)
        sim.run()
        # Re-submitting after completion is a fresh render (the shared
        # store is what prevents this, not the farm).
        assert farm.snapshot().renders == 2
        assert farm.snapshot().coalesced == 0


class TestIsolatedBatching:
    def test_isolated_batches_are_single_session(self):
        sim = Simulator()
        farm = make_farm(sim, gpu_slots=1, batch_max=4,
                         cross_session=False)
        farm.submit(0, "warm", deadline_ms=0.0)
        for i in range(2):
            farm.submit(1, f"s1-{i}", deadline_ms=500.0)
            farm.submit(2, f"s2-{i}", deadline_ms=500.0)
        sim.run()
        snap = farm.snapshot()
        # warm + one batch per session (2 renders each): 3 batches, not
        # the 2 a cross-session farm would need.
        assert snap.batches == 3
        assert snap.renders == 5

    def test_cross_session_batches_mix_sessions(self):
        sim = Simulator()
        farm = make_farm(sim, gpu_slots=1, batch_max=4, cross_session=True)
        farm.submit(0, "warm", deadline_ms=0.0)
        for i in range(2):
            farm.submit(1, f"s1-{i}", deadline_ms=500.0)
            farm.submit(2, f"s2-{i}", deadline_ms=500.0)
        sim.run()
        assert farm.snapshot().batches == 2


class TestAccounting:
    def test_queue_peak_tracks_backlog(self):
        sim = Simulator()
        farm = make_farm(sim, gpu_slots=1, batch_max=1)
        for i in range(5):
            farm.submit(0, f"addr-{i}", deadline_ms=1000.0)
        sim.run()
        assert not farm._pending  # the backlog drained
        assert farm.snapshot().renders == 5
        assert farm.snapshot().queue_peak == 4  # one dispatched immediately

    def test_empty_farm_snapshot(self):
        farm = make_farm(Simulator())
        snap = farm.snapshot()
        assert snap.renders == 0
        assert snap.mean_wait_ms == 0.0
        assert snap.p99_wait_ms == 0.0
        assert snap.to_dict()["renders"] == 0

"""Tests for fleet admission control and the shared panorama store."""

import pytest

from repro.fleet import (
    FleetAdmissionController,
    FleetBudget,
    SessionEstimate,
    SharedPanoramaStore,
)


def estimate(players=4, renders_per_s=20.0, be_kbps=100.0, fi_kbps=50.0):
    return SessionEstimate(
        players=players,
        renders_per_s=renders_per_s,
        be_kbps_per_player=be_kbps,
        fi_kbps=fi_kbps,
    )


class TestFleetBudget:
    def test_usable_renders_derated(self):
        budget = FleetBudget(gpu_slots=4, render_ms=25.0)
        # 4 slots x 40 renders/s x RENDER_HEADROOM (0.8).
        assert budget.usable_renders_per_s == pytest.approx(128.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetBudget(gpu_slots=0)
        with pytest.raises(ValueError):
            FleetBudget(render_ms=0.0)
        with pytest.raises(ValueError):
            FleetBudget(max_sessions=0)

    def test_bandwidth_budget(self):
        budget = FleetBudget(bandwidth_mbps=100.0)
        assert budget.bandwidth.capacity_mbps == 100.0
        # UTILIZATION_BOUND (0.8) of the nominal capacity.
        assert budget.bandwidth.usable_mbps == pytest.approx(80.0)


class TestAdmissionReasons:
    def test_admits_within_budget(self):
        controller = FleetAdmissionController(FleetBudget())
        decision = controller.evaluate([], estimate())
        assert decision.admitted and decision.reason == "admitted"
        assert decision.sessions_after == 1

    def test_fleet_full(self):
        controller = FleetAdmissionController(
            FleetBudget(max_sessions=2)
        )
        active = [estimate(), estimate()]
        decision = controller.evaluate(active, estimate())
        assert not decision.admitted and decision.reason == "fleet-full"

    def test_constraint_1_render_throughput(self):
        # Usable: 1 slot * (1000/50) * 0.8 = 16 renders/s.
        budget = FleetBudget(gpu_slots=1, render_ms=50.0)
        controller = FleetAdmissionController(budget)
        decision = controller.evaluate([], estimate(renders_per_s=20.0))
        assert not decision.admitted and decision.reason == "constraint-1"
        assert decision.render_utilization > 1.0

    def test_constraint_2_backhaul(self):
        # 10 Mbps * 0.8 usable; 4 players * 100 kbps BE + 50 kbps FI
        # fits, but 100 players do not.
        budget = FleetBudget(bandwidth_mbps=10.0)
        controller = FleetAdmissionController(budget)
        ok = controller.evaluate([], estimate(players=4))
        assert ok.admitted
        decision = controller.evaluate(
            [], estimate(players=100, renders_per_s=0.0)
        )
        assert not decision.admitted and decision.reason == "constraint-2"

    def test_check_order_fleet_full_first(self):
        budget = FleetBudget(gpu_slots=1, render_ms=50.0, max_sessions=1)
        controller = FleetAdmissionController(budget)
        decision = controller.evaluate(
            [estimate()], estimate(renders_per_s=1e6)
        )
        assert decision.reason == "fleet-full"


class TestDedupDiscount:
    def test_miss_ratio_converts_to_capacity(self):
        # 16 renders/s usable; raw demand 10 + 10 = 20 exceeds it, but
        # at a 0.5 observed miss ratio only 10 reach the GPUs.
        budget = FleetBudget(gpu_slots=1, render_ms=50.0)
        full = FleetAdmissionController(budget, miss_ratio=lambda: 1.0)
        deduped = FleetAdmissionController(budget, miss_ratio=lambda: 0.5)
        active = [estimate(renders_per_s=10.0)]
        candidate = estimate(renders_per_s=10.0)
        assert full.evaluate(active, candidate).reason == "constraint-1"
        decision = deduped.evaluate(active, candidate)
        assert decision.admitted
        assert decision.miss_ratio == 0.5
        assert decision.predicted_renders_per_s == pytest.approx(10.0)

    def test_miss_ratio_clamped(self):
        controller = FleetAdmissionController(
            FleetBudget(), miss_ratio=lambda: 7.5
        )
        assert controller.evaluate([], estimate()).miss_ratio == 1.0

    def test_no_discount_on_bandwidth(self):
        # Dedup helps the farm, not the backhaul: a bandwidth-bound
        # candidate stays rejected at any miss ratio.
        budget = FleetBudget(bandwidth_mbps=10.0)
        controller = FleetAdmissionController(budget, miss_ratio=lambda: 0.05)
        decision = controller.evaluate(
            [], estimate(players=100, renders_per_s=0.0)
        )
        assert decision.reason == "constraint-2"


class TestSharedStore:
    def test_cross_session_hits(self):
        store = SharedPanoramaStore(shared=True)
        hit, address = store.lookup(0, "racing", (3, 4))
        assert not hit
        store.commit(address)
        hit, again = store.lookup(1, "racing", (3, 4))
        assert hit and again == address
        assert store.hits == 1 and store.misses == 1
        assert store.hit_ratio == 0.5

    def test_isolated_namespacing(self):
        store = SharedPanoramaStore(shared=False)
        _, a0 = store.lookup(0, "racing", (3, 4))
        store.commit(a0)
        hit, a1 = store.lookup(1, "racing", (3, 4))
        assert not hit and a1 != a0
        # The same session still hits its own renders.
        hit, _ = store.lookup(0, "racing", (3, 4))
        assert hit

    def test_worlds_do_not_alias(self):
        store = SharedPanoramaStore()
        a = store.address("racing", (0, 0))
        b = store.address("viking", (0, 0))
        assert a != b

    def test_per_session_counters(self):
        store = SharedPanoramaStore()
        _, address = store.lookup(0, "racing", (1, 1))
        store.commit(address)
        store.lookup(1, "racing", (1, 1))
        store.lookup(1, "racing", (2, 2))
        assert store.session_hits == {1: 1}
        assert store.session_misses == {0: 1, 1: 1}

    def test_snapshot(self):
        store = SharedPanoramaStore()
        _, address = store.lookup(0, "racing", (1, 1))
        store.commit(address)
        snap = store.snapshot()
        assert snap == {
            "shared": True, "lookups": 1, "hits": 0, "misses": 1,
            "hit_ratio": 0.0, "rendered": 1,
        }


class TestExpectedMissRatio:
    def test_no_evidence_assumes_all_miss(self):
        store = SharedPanoramaStore()
        assert store.expected_miss_ratio() == 1.0

    def test_isolated_always_full_miss(self):
        store = SharedPanoramaStore(shared=False)
        _, address = store.lookup(0, "racing", (1, 1))
        store.commit(address)
        store.lookup(0, "racing", (1, 1))
        assert store.expected_miss_ratio() == 1.0

    def test_tracks_observed_miss_ratio(self):
        store = SharedPanoramaStore()
        _, address = store.lookup(0, "racing", (1, 1))
        store.commit(address)
        for _ in range(3):
            store.lookup(1, "racing", (1, 1))
        assert store.expected_miss_ratio() == pytest.approx(0.25)

    def test_floor_keeps_renders_nonfree(self):
        store = SharedPanoramaStore()
        _, address = store.lookup(0, "racing", (1, 1))
        store.commit(address)
        for _ in range(100):
            store.lookup(1, "racing", (1, 1))
        assert store.expected_miss_ratio() == 0.05

"""Property-style invariants that encode the paper's causal claims.

Each test states a mechanism the paper relies on and checks it holds for
arbitrary(ish) inputs, not just the benchmark configurations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FrameCache,
    CachedFrame,
    RenderBudget,
    exact_max_radius,
)
from repro.core.pipeline import PipelineTimings, frame_interval_ms
from repro.geometry import Rect, Vec2, Vec3, angular_radius
from repro.net import WifiLink
from repro.render import PIXEL2, RenderCostModel
from repro.sim import Simulator
from repro.world import Scene, SceneObject

MODEL = RenderCostModel(PIXEL2)


def obj(oid, x, y, triangles=50_000, radius=1.0):
    return SceneObject(oid, "tree", Vec3(x, y, radius), radius, triangles,
                       0.5, 0.3, oid)


class TestCutoffMonotonicity:
    """More budget -> larger cutoff; denser world -> smaller cutoff."""

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=4.1, max_value=12.0))
    def test_cutoff_monotone_in_fi_cost(self, fi_ms):
        rng = np.random.default_rng(0)
        objects = [
            obj(i, float(rng.uniform(0, 200)), float(rng.uniform(0, 200)))
            for i in range(200)
        ]
        scene = Scene(Rect(0, 0, 200, 200), objects, lambda p: 0.0)
        lean = RenderBudget(fi_ms=4.0)
        fat = RenderBudget(fi_ms=fi_ms)
        p = Vec2(100, 100)
        r_lean = exact_max_radius(scene, MODEL, p, lean, 150.0)
        r_fat = exact_max_radius(scene, MODEL, p, fat, 150.0)
        assert r_fat <= r_lean + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=4))
    def test_cutoff_monotone_in_density(self, factor):
        base = [obj(i, 5.0 * (i % 40) + 2, 5.0 * (i // 40) + 2) for i in range(400)]
        scene_sparse = Scene(Rect(0, 0, 200, 200), base, lambda p: 0.0)
        heavier = [
            SceneObject(o.object_id, o.kind_name, o.center, o.radius,
                        o.triangles * factor, o.luminance, o.contrast,
                        o.texture_seed)
            for o in base
        ]
        scene_dense = Scene(Rect(0, 0, 200, 200), heavier, lambda p: 0.0)
        p = Vec2(100, 100)
        budget = RenderBudget()
        assert exact_max_radius(scene_dense, MODEL, p, budget, 150.0) <= (
            exact_max_radius(scene_sparse, MODEL, p, budget, 150.0) + 1e-9
        )


class TestProjectionLaws:
    """The perspective-projection asymmetry behind the near-object effect."""

    @settings(max_examples=30)
    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=1.1, max_value=10.0),
    )
    def test_angular_size_scales_inverse_distance(self, radius, factor):
        near_d = radius * 2.0
        far_d = near_d * factor
        near_ang = angular_radius(radius, near_d)
        far_ang = angular_radius(radius, far_d)
        assert near_ang > far_ang
        # For small angles, the ratio approaches the distance ratio.
        if far_ang < 0.2:
            assert near_ang / far_ang > 0.8 * factor


class TestCacheInvariants:
    def test_used_bytes_never_exceed_capacity(self):
        cache = FrameCache(capacity_bytes=1000)
        rng = np.random.default_rng(1)
        for k in range(100):
            size = int(rng.integers(50, 400))
            cache.insert(
                CachedFrame(
                    grid_point=(k, 0), position=Vec2(float(k), 0.0),
                    leaf=(0, 0, 1, 1), near_ids=frozenset(), payload=None,
                    size_bytes=size, inserted_ms=float(k), last_used_ms=float(k),
                )
            )
            assert cache.used_bytes <= 1000

    def test_hits_plus_misses_equals_lookups(self):
        cache = FrameCache()
        rng = np.random.default_rng(2)
        for k in range(200):
            gp = (int(rng.integers(0, 10)), 0)
            hit = cache.lookup(gp, Vec2(gp[0], 0.0), (0, 0, 1, 1),
                               frozenset(), 0.5, float(k))
            if hit is None:
                cache.insert(
                    CachedFrame(
                        grid_point=gp, position=Vec2(gp[0], 0.0),
                        leaf=(0, 0, 1, 1), near_ids=frozenset(), payload=None,
                        size_bytes=10, inserted_ms=float(k), last_used_ms=float(k),
                    )
                )
        assert cache.stats.hits + cache.stats.misses == 200
        assert cache.stats.hits > 0


class TestPipelineLaws:
    @settings(max_examples=40)
    @given(
        st.floats(min_value=0, max_value=20),
        st.floats(min_value=0, max_value=20),
        st.floats(min_value=0, max_value=40),
        st.floats(min_value=0, max_value=5),
    )
    def test_eq2_bounded_by_tasks(self, render, decode, prefetch, sync):
        t = PipelineTimings(
            render_fi_ms=render / 2, render_near_be_ms=render / 2,
            decode_ms=decode, prefetch_ms=prefetch, sync_ms=sync,
            merge_ms=1.0,
        )
        total = t.split_render_ms()
        # Eq. 2: total is the max task plus merge — never the sum.
        assert total >= max(render, decode, prefetch, sync)
        assert total <= max(render, decode, prefetch, sync) + 1.0 + 1e-9
        # Display interval never beats the refresh rate.
        assert frame_interval_ms(t) >= 1000.0 / 60.0 - 1e-9


class TestNetworkLaws:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_n_concurrent_transfers_scale_linearly(self, n):
        sim = Simulator()
        link = WifiLink(sim, capacity_mbps=400.0, overhead_ms=0.0, stations=1)
        durations = []

        def proc():
            d = yield link.transfer(400_000)
            durations.append(d)

        for _ in range(n):
            sim.spawn(proc())
        sim.run()
        solo = 400_000 * 8 / (400.0 * 1e6) * 1000.0
        assert durations[0] == pytest.approx(n * solo, rel=0.02)

    def test_mac_efficiency_decreases_with_stations(self):
        effs = [
            WifiLink(Simulator(), stations=n).mac_efficiency for n in (1, 2, 4, 8)
        ]
        assert effs[0] == 1.0
        assert all(a > b for a, b in zip(effs, effs[1:]))

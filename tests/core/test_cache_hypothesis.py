"""Property tests: cache invariants under arbitrary interleavings.

A fixed unit test can only pin the interleavings someone thought of;
here hypothesis drives *arbitrary* insert → evict → lookup → nearest
sequences (including LRU pressure evictions and, in the second property,
speculative tagging with confirm/discard/expire) through one cache and
checks its bookkeeping after every operation.
"""

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CachedFrame, FrameCache
from repro.geometry import Vec2

GRID_RANGE = 6  # small grid: collisions, replacements, near ties
LEAVES = ("leaf-a", "leaf-b")
NEAR_SETS = (frozenset({1}), frozenset({1, 2}))


def make_frame(gx, gy, size_bytes, t_ms, leaf="leaf-a",
               near_ids=frozenset({1}), speculative=False, digest=0):
    return CachedFrame(
        grid_point=(gx, gy),
        position=Vec2(float(gx), float(gy)),
        leaf=leaf,
        near_ids=near_ids,
        payload=None,
        size_bytes=size_bytes,
        inserted_ms=t_ms,
        last_used_ms=t_ms,
        speculative=speculative,
        digest=digest,
    )


coords = st.integers(min_value=0, max_value=GRID_RANGE)

plain_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), coords, coords,
                  st.integers(min_value=100, max_value=500)),
        st.tuples(st.just("lookup"), coords, coords,
                  st.sampled_from(LEAVES), st.sampled_from(NEAR_SETS),
                  st.floats(min_value=0.0, max_value=4.0)),
        st.tuples(st.just("nearest"),
                  st.floats(min_value=-1.0, max_value=GRID_RANGE + 1.0),
                  st.floats(min_value=-1.0, max_value=GRID_RANGE + 1.0)),
    ),
    max_size=40,
)

spec_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), coords, coords,
                  st.integers(min_value=100, max_value=500),
                  st.booleans()),
        st.tuples(st.just("lookup"), coords, coords),
        st.tuples(st.just("nearest"), coords, coords),
        st.tuples(st.just("confirm"), coords, coords),
        st.tuples(st.just("discard"), coords, coords),
        st.tuples(st.just("expire"), st.integers(min_value=0, max_value=50)),
        st.tuples(st.just("drop_spec")),
    ),
    max_size=50,
)


def check_invariants(cache, before):
    """Bookkeeping that must hold after every operation; returns the stats."""
    frames = cache.frames()
    assert len(cache) == len(frames)
    assert cache.used_bytes == sum(f.size_bytes for f in frames)
    assert cache.used_bytes <= cache.capacity_bytes
    assert cache.speculative_count == sum(f.speculative for f in frames)
    after = dataclasses.asdict(cache.stats)
    assert all(after[name] >= before[name] for name in before)
    return after


class TestCacheInvariants:
    @given(ops=plain_ops)
    @settings(max_examples=60, deadline=None)
    def test_plain_interleavings(self, ops):
        """Every answer is a resident frame that meets the §5.3 criteria."""
        # Small capacity: a handful of inserts forces LRU evictions.
        cache = FrameCache(capacity_bytes=1500)
        stats = dataclasses.asdict(cache.stats)
        t_ms = 0.0
        for op in ops:
            t_ms += 16.0
            if op[0] == "insert":
                _, gx, gy, size = op
                leaf = LEAVES[(gx + gy) % 2]
                near = NEAR_SETS[gx % 2]
                cache.insert(make_frame(gx, gy, size, t_ms, leaf, near))
            elif op[0] == "lookup":
                _, gx, gy, leaf, near, thresh = op
                position = Vec2(float(gx), float(gy))
                lookups = cache.stats.lookups
                hit = cache.lookup((gx, gy), position, leaf, near, thresh, t_ms)
                assert cache.stats.lookups == lookups + 1
                if hit is not None and hit.grid_point != (gx, gy):
                    assert hit.position.distance_to(position) <= thresh
                    assert (hit.leaf, hit.near_ids) == (leaf, near)
                if hit is not None:
                    assert hit in cache.frames()
                    assert hit.last_used_ms == t_ms
            else:
                _, x, y = op
                query = Vec2(x, y)
                best = cache.nearest(query, t_ms)
                assert (best is None) == (len(cache) == 0)
                if best is not None:
                    assert best.position.distance_to(query) == min(
                        f.position.distance_to(query) for f in cache.frames()
                    )
            stats = check_invariants(cache, stats)

    @given(ops=spec_ops)
    @settings(max_examples=60, deadline=None)
    def test_speculative_interleavings(self, ops):
        """Bookkeeping holds with speculative tagging in the mix, and
        ``nearest`` never serves an unconfirmed speculative frame."""
        cache = FrameCache(capacity_bytes=2000)
        stats = dataclasses.asdict(cache.stats)
        t_ms = 0.0
        for op in ops:
            t_ms += 16.0
            if op[0] == "insert":
                _, gx, gy, size, speculative = op
                digest = (gx << 8) | gy if speculative else 0
                cache.insert(make_frame(gx, gy, size, t_ms,
                                        speculative=speculative, digest=digest))
            elif op[0] == "lookup":
                _, gx, gy = op
                cache.lookup((gx, gy), Vec2(float(gx), float(gy)), "leaf-a",
                             frozenset({1}), 2.0, t_ms)
            elif op[0] == "nearest":
                _, gx, gy = op
                best = cache.nearest(Vec2(float(gx), float(gy)), t_ms)
                confirmed = [f for f in cache.frames() if not f.speculative]
                assert (best is None) == (not confirmed)
                if best is not None:
                    assert not best.speculative
            elif op[0] in ("confirm", "discard"):
                _, gx, gy = op
                resident = cache._frames.get((gx, gy))
                if resident is None:
                    continue
                if op[0] == "confirm":
                    cache.confirm(resident)
                    assert not resident.speculative
                else:
                    assert cache.discard(resident)
                    assert resident not in cache.frames()
            elif op[0] == "expire":
                _, ttl = op
                spec_before = cache.speculative_count
                expired = cache.expire_speculative(t_ms, float(ttl))
                assert cache.speculative_count == spec_before - expired
                assert not any(
                    f.speculative and t_ms - f.inserted_ms > ttl
                    for f in cache.frames()
                )
            else:  # drop_spec
                spec_before = cache.speculative_count
                assert cache.drop_speculative() == spec_before
                assert cache.speculative_count == 0
            stats = check_invariants(cache, stats)

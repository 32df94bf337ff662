"""Tests for the far-BE frame cache (§5.3 lookup + replacement)."""

import math

import pytest

from repro import perf
from repro.core import FLF, LRU, CachedFrame, FrameCache
from repro.geometry import Vec2

LEAF_A = (0.0, 0.0, 50.0, 50.0)
LEAF_B = (50.0, 0.0, 100.0, 50.0)


def frame(gp, x, y, leaf=LEAF_A, near=frozenset(), size=100, t=0.0, origin=-1):
    return CachedFrame(
        grid_point=gp,
        position=Vec2(x, y),
        leaf=leaf,
        near_ids=frozenset(near),
        payload=None,
        size_bytes=size,
        inserted_ms=t,
        last_used_ms=t,
        origin_player=origin,
    )


class TestLookup:
    def test_exact_hit(self):
        cache = FrameCache()
        cache.insert(frame((5, 5), 5.0, 5.0))
        hit = cache.lookup((5, 5), Vec2(5, 5), LEAF_A, frozenset(), 0.0, now_ms=1.0)
        assert hit is not None and hit.grid_point == (5, 5)
        assert cache.stats.hits == 1

    def test_similar_hit_within_thresh(self):
        cache = FrameCache()
        cache.insert(frame((5, 5), 5.0, 5.0, near={1, 2}))
        hit = cache.lookup(
            (6, 5), Vec2(5.5, 5.0), LEAF_A, frozenset({1, 2}), dist_thresh=1.0,
            now_ms=1.0,
        )
        assert hit is not None
        assert hit.grid_point == (5, 5)

    def test_criterion1_distance(self):
        cache = FrameCache()
        cache.insert(frame((5, 5), 5.0, 5.0, near={1}))
        miss = cache.lookup(
            (9, 5), Vec2(9.0, 5.0), LEAF_A, frozenset({1}), dist_thresh=1.0,
            now_ms=1.0,
        )
        assert miss is None
        assert cache.stats.misses == 1

    def test_criterion2_leaf(self):
        cache = FrameCache()
        cache.insert(frame((5, 5), 5.0, 5.0, leaf=LEAF_A, near={1}))
        miss = cache.lookup(
            (6, 5), Vec2(5.5, 5.0), LEAF_B, frozenset({1}), dist_thresh=5.0,
            now_ms=1.0,
        )
        assert miss is None

    def test_criterion3_near_set(self):
        cache = FrameCache()
        cache.insert(frame((5, 5), 5.0, 5.0, near={1, 2}))
        miss = cache.lookup(
            (6, 5), Vec2(5.5, 5.0), LEAF_A, frozenset({1, 2, 3}), dist_thresh=5.0,
            now_ms=1.0,
        )
        assert miss is None

    def test_closest_candidate_wins(self):
        cache = FrameCache()
        cache.insert(frame((2, 5), 2.0, 5.0, near={1}))
        cache.insert(frame((4, 5), 4.0, 5.0, near={1}))
        hit = cache.lookup(
            (5, 5), Vec2(4.5, 5.0), LEAF_A, frozenset({1}), dist_thresh=5.0,
            now_ms=1.0,
        )
        assert hit.grid_point == (4, 5)

    def test_exact_only_mode(self):
        cache = FrameCache(exact_only=True)
        cache.insert(frame((5, 5), 5.0, 5.0, near={1}))
        assert cache.lookup((5, 5), Vec2(5, 5), LEAF_A, frozenset({1}), 9.0, 1.0)
        assert (
            cache.lookup((6, 5), Vec2(5.1, 5.0), LEAF_A, frozenset({1}), 9.0, 1.0)
            is None
        )

    def test_negative_thresh_rejected(self):
        cache = FrameCache()
        with pytest.raises(ValueError):
            cache.lookup((0, 0), Vec2(0, 0), LEAF_A, frozenset(), -1.0, 0.0)

    def test_hit_ratio(self):
        cache = FrameCache()
        cache.insert(frame((5, 5), 5.0, 5.0))
        cache.lookup((5, 5), Vec2(5, 5), LEAF_A, frozenset(), 0.0, 1.0)
        cache.lookup((9, 9), Vec2(9, 9), LEAF_A, frozenset(), 0.0, 2.0)
        assert cache.stats.hit_ratio == pytest.approx(0.5)
        assert cache.stats.lookups == 2

    def test_empty_cache_hit_ratio_zero(self):
        assert FrameCache().stats.hit_ratio == 0.0


class TestMissAttribution:
    """A similarity miss counts under the furthest criterion a frame reached."""

    def miss(self, cache, leaf=LEAF_A, near=frozenset({1})):
        before = perf.snapshot()["counters"]
        assert cache.lookup((9, 5), Vec2(9.0, 5.0), leaf, near, 2.0, 1.0) is None
        after = perf.snapshot()["counters"]
        return {
            name: after[name] - before.get(name, 0)
            for name in after if after[name] != before.get(name, 0)
        }

    def test_each_label(self):
        cache = FrameCache()
        assert self.miss(cache) == {"cache.miss.empty": 1}
        cache.insert(frame((1, 5), 1.0, 5.0, near={1}))
        assert self.miss(cache) == {"cache.miss.distance": 1}
        cache.insert(frame((8, 5), 8.0, 5.0, leaf=LEAF_B, near={1}))
        assert self.miss(cache) == {"cache.miss.leaf": 1}
        cache.insert(frame((10, 5), 10.0, 5.0, near={1, 2}))
        assert self.miss(cache) == {"cache.miss.near_set": 1}
        # A frame that fails the leaf after another failed the near set
        # leaves the miss on the near set.
        cache.insert(frame((9, 6), 9.0, 6.0, leaf=LEAF_B, near={1}))
        assert self.miss(cache) == {"cache.miss.near_set": 1}
        stats = cache.stats
        assert (stats.miss_empty, stats.miss_distance, stats.miss_leaf,
                stats.miss_near_set) == (1, 1, 1, 2)
        assert stats.misses == 5

    def test_exact_only_miss_has_no_criterion(self):
        cache = FrameCache(exact_only=True)
        cache.insert(frame((8, 5), 8.0, 5.0, near={1}))
        assert self.miss(cache) == {}
        assert cache.stats.misses == 1
        assert cache.stats.miss_empty + cache.stats.miss_distance == 0


class TestTieBreaking:
    """Ties resolve by insertion order; the distance criterion is inclusive."""

    def test_exact_tie_resolves_to_insertion_order(self):
        cache = FrameCache()
        cache.insert(frame((0, 1), 0.0, 1.0, near={1}))
        cache.insert(frame((0, -1), 0.0, -1.0, near={1}))  # same distance
        cache.insert(frame((2, 0), 2.0, 0.0, near={1}))
        hit = cache.lookup(
            (9, 9), Vec2(0.0, 0.0), LEAF_A, frozenset({1}), dist_thresh=5.0,
            now_ms=1.0,
        )
        assert hit is not None and hit.grid_point == (0, 1)

    def test_nearest_tie_matches_min(self):
        cache = FrameCache()
        cache.insert(frame((1, 0), 1.0, 0.0))
        cache.insert(frame((-1, 0), -1.0, 0.0))
        origin = Vec2(0.0, 0.0)
        expected = min(cache.frames(), key=lambda f: f.position.distance_to(origin))
        assert cache.nearest(origin) is expected
        assert expected.grid_point == (1, 0)

    def test_threshold_boundary_exact(self):
        """A candidate at exactly dist_thresh is a hit."""
        cache = FrameCache()
        cache.insert(frame((3, 4), 3.0, 4.0, near={1}))
        hit = cache.lookup(
            (9, 9), Vec2(0.0, 0.0), LEAF_A, frozenset({1}),
            dist_thresh=math.hypot(3.0, 4.0), now_ms=1.0,
        )
        assert hit is not None and hit.grid_point == (3, 4)


class TestInsertAndReplacement:
    def test_insert_replaces_same_grid_point(self):
        cache = FrameCache()
        cache.insert(frame((5, 5), 5.0, 5.0, size=100))
        cache.insert(frame((5, 5), 5.0, 5.0, size=200))
        assert len(cache) == 1
        assert cache.used_bytes == 200

    def test_oversized_frame_rejected(self):
        cache = FrameCache(capacity_bytes=100)
        with pytest.raises(ValueError):
            cache.insert(frame((0, 0), 0, 0, size=101))

    def test_lru_evicts_least_recently_used(self):
        cache = FrameCache(capacity_bytes=250, policy=LRU)
        cache.insert(frame((1, 0), 1, 0, size=100, t=1.0))
        cache.insert(frame((2, 0), 2, 0, size=100, t=2.0))
        # Touch the older frame so (2,0) becomes the LRU victim.
        cache.lookup((1, 0), Vec2(1, 0), LEAF_A, frozenset(), 0.0, now_ms=5.0)
        cache.insert(frame((3, 0), 3, 0, size=100, t=6.0))
        points = {f.grid_point for f in cache.frames()}
        assert points == {(1, 0), (3, 0)}
        assert cache.stats.evictions == 1

    def test_flf_evicts_furthest(self):
        cache = FrameCache(capacity_bytes=250, policy=FLF)
        cache.insert(frame((1, 0), 1, 0, size=100, t=1.0))
        cache.insert(frame((50, 0), 50, 0, size=100, t=2.0))
        # New frame inserted at x=2: the far frame at x=50 is evicted.
        cache.insert(frame((2, 0), 2, 0, size=100, t=3.0))
        points = {f.grid_point for f in cache.frames()}
        assert points == {(1, 0), (2, 0)}

    def test_clear(self):
        cache = FrameCache()
        cache.insert(frame((1, 1), 1, 1))
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameCache(capacity_bytes=0)
        with pytest.raises(ValueError):
            FrameCache(policy="mru")
        with pytest.raises(ValueError):
            frame((0, 0), 0, 0, size=-1)


class TestCacheVersionSemantics:
    """The five §4.6 cache configurations express through the flags."""

    def test_version1_exact_self(self):
        # Version 1: own frames, exact only -> moving to a new point misses.
        cache = FrameCache(exact_only=True)
        cache.insert(frame((1, 0), 1, 0, origin=0))
        assert cache.lookup((2, 0), Vec2(1.03, 0), LEAF_A, frozenset(), 9.0, 1.0) is None

    def test_version3_similar_self(self):
        cache = FrameCache()
        cache.insert(frame((1, 0), 1.0, 0, near={7}, origin=0))
        assert cache.lookup(
            (2, 0), Vec2(1.03, 0), LEAF_A, frozenset({7}), 9.0, 1.0
        ) is not None

    def test_overheard_frames_carry_origin(self):
        cache = FrameCache()
        cache.insert(frame((1, 0), 1.0, 0, near={7}, origin=2))
        hit = cache.lookup((1, 0), Vec2(1, 0), LEAF_A, frozenset({7}), 9.0, 1.0)
        assert hit.origin_player == 2

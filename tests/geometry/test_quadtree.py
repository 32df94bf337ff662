"""Tests for the region quadtree."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import QuadTree, Rect, Vec2


def depth_policy(target_depth):
    """Split until ``target_depth``; leaf payload is the region area."""

    def policy(region, depth):
        return depth >= target_depth, region.area

    return policy


class TestBuild:
    def test_single_leaf(self):
        tree = QuadTree.build(Rect(0, 0, 8, 8), depth_policy(0))
        stats = tree.stats()
        assert stats.leaf_count == 1
        assert stats.max_depth == 0
        assert tree.root.is_leaf

    def test_uniform_depth_two(self):
        tree = QuadTree.build(Rect(0, 0, 8, 8), depth_policy(2))
        stats = tree.stats()
        assert stats.leaf_count == 16
        assert stats.max_depth == 2
        assert stats.avg_depth == 2.0
        assert stats.node_count == 1 + 4 + 16

    def test_max_depth_bounds_runaway_policy(self):
        # A policy that never stops is cut off at max_depth.
        tree = QuadTree.build(
            Rect(0, 0, 1, 1), lambda region, depth: (False, None), max_depth=3
        )
        assert tree.stats().max_depth == 3
        assert tree.stats().leaf_count == 64

    def test_negative_max_depth_raises(self):
        with pytest.raises(ValueError):
            QuadTree.build(Rect(0, 0, 1, 1), depth_policy(0), max_depth=-1)

    def test_nonuniform_split(self):
        # Only the SW corner keeps splitting: payload marks region.
        def policy(region, depth):
            wants_split = region.contains(Vec2(0.01, 0.01)) and depth < 3
            return not wants_split, depth

        tree = QuadTree.build(Rect(0, 0, 8, 8), policy)
        stats = tree.stats()
        assert stats.max_depth == 3
        # Each split adds 3 extra leaves: 1 -> 4 -> 7 -> 10.
        assert stats.leaf_count == 10


class TestLookup:
    def test_leaf_for_center(self):
        tree = QuadTree.build(Rect(0, 0, 8, 8), depth_policy(2))
        leaf = tree.leaf_for(Vec2(1, 1))
        assert leaf.region.contains(Vec2(1, 1))
        assert leaf.depth == 2

    def test_leaf_for_outside_raises(self):
        tree = QuadTree.build(Rect(0, 0, 8, 8), depth_policy(1))
        with pytest.raises(ValueError):
            tree.leaf_for(Vec2(9, 9))

    def test_max_edge_resolves(self):
        tree = QuadTree.build(Rect(0, 0, 8, 8), depth_policy(2))
        leaf = tree.leaf_for(Vec2(8, 8))
        assert leaf.region.contains_closed(Vec2(8, 8))

    def test_boundary_point_deterministic(self):
        tree = QuadTree.build(Rect(0, 0, 8, 8), depth_policy(2))
        a = tree.leaf_for(Vec2(4, 4))
        b = tree.leaf_for(Vec2(4, 4))
        assert a is b

    @given(
        st.floats(min_value=0, max_value=8),
        st.floats(min_value=0, max_value=8),
    )
    def test_every_point_has_exactly_one_leaf(self, x, y):
        tree = QuadTree.build(Rect(0, 0, 8, 8), depth_policy(3))
        p = Vec2(x, y)
        leaf = tree.leaf_for(p)
        assert leaf.region.contains_closed(p)
        # Interior points are claimed by exactly one leaf under half-open
        # containment.
        owners = [l for l in tree.leaves() if l.region.contains(p)]
        assert len(owners) <= 1


class TestTraversal:
    def test_leaves_tile_world(self):
        world = Rect(0, 0, 8, 8)
        tree = QuadTree.build(world, depth_policy(2))
        assert sum(l.region.area for l in tree.leaves()) == pytest.approx(world.area)

    def test_leaf_payloads(self):
        tree = QuadTree.build(Rect(0, 0, 8, 8), depth_policy(1))
        payloads = [leaf.payload for leaf in tree.leaves()]
        assert payloads == [16.0] * 4

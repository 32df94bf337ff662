"""Region quadtree used by the adaptive cutoff scheme (§4.3).

The paper recursively partitions the 2D game world "until the cutoff
radiuses within each subregion become roughly uniform".  The partitioning
logic itself is generic: a predicate decides whether a region must split,
and a payload function computes the value stored at each leaf.  The Coterie
specific policy (K random samples, radius agreement, Constraint 1) lives in
:mod:`repro.core.cutoff`; this module owns only the tree structure, point
lookup, and summary statistics reported in Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Iterator, Optional, Tuple, TypeVar

from .grid import Rect
from .vec import Vec2

T = TypeVar("T")

# Decides whether a region is uniform enough to become a leaf.  Returns
# ``(stop, payload)``: if ``stop`` the region becomes a leaf carrying
# ``payload``; otherwise it splits into 4 quadrants.
SplitPolicy = Callable[[Rect, int], Tuple[bool, T]]


@dataclass
class QuadNode(Generic[T]):
    """A node of the region quadtree; leaves carry a payload."""

    region: Rect
    depth: int
    payload: Optional[T] = None
    children: Optional[Tuple["QuadNode[T]", ...]] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass
class QuadTreeStats:
    """The quadtree summary the paper reports per game in Table 3."""

    leaf_count: int
    max_depth: int
    avg_depth: float
    node_count: int


class QuadTree(Generic[T]):
    """A region quadtree built by recursive predicate-driven subdivision."""

    def __init__(self, root: QuadNode[T]) -> None:
        self.root = root

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        world: Rect,
        policy: SplitPolicy,
        max_depth: int = 12,
    ) -> "QuadTree[T]":
        """Recursively partition ``world`` according to ``policy``.

        ``max_depth`` bounds recursion for pathological policies; a region
        at the depth limit becomes a leaf with whatever payload the policy
        produced, matching the paper's implicit bound (regions cannot shrink
        below the grid pitch).
        """
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")

        def recurse(region: Rect, depth: int) -> QuadNode[T]:
            stop, payload = policy(region, depth)
            if stop or depth >= max_depth:
                return QuadNode(region=region, depth=depth, payload=payload)
            children = tuple(
                recurse(quad, depth + 1) for quad in region.quadrants()
            )
            return QuadNode(region=region, depth=depth, children=children)

        return cls(recurse(world, 0))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def leaf_for(self, point: Vec2) -> QuadNode[T]:
        """The leaf region containing ``point``.

        Frame-cache lookups must agree on region membership between the
        cached frame and the requested grid point (criterion 2 in §5.3), so
        boundary points resolve deterministically via half-open containment,
        with the world's outer max edges treated as closed.
        """
        if not self.root.region.contains_closed(point):
            raise ValueError(
                f"point {point} outside world bounds {self.root.region}"
            )
        node = self.root
        while not node.is_leaf:
            assert node.children is not None
            advanced = False
            for child in node.children:
                if child.region.contains(point):
                    node = child
                    advanced = True
                    break
            if not advanced:
                # Point sits on the world's max edge: pick the quadrant whose
                # closed region contains it, preferring the last (NE) one.
                for child in reversed(node.children):
                    if child.region.contains_closed(point):
                        node = child
                        advanced = True
                        break
            if not advanced:  # pragma: no cover - defensive
                raise RuntimeError(f"quadtree descent lost point {point}")
        return node

    # ------------------------------------------------------------------
    # Traversal and statistics
    # ------------------------------------------------------------------

    def leaves(self) -> Iterator[QuadNode[T]]:
        """Iterate all leaf nodes."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                assert node.children is not None
                stack.extend(node.children)

    def stats(self) -> QuadTreeStats:
        """Leaf/depth/node summary (Table 3's columns)."""
        leaf_count = 0
        node_count = 0
        depth_sum = 0
        max_depth = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            node_count += 1
            if node.is_leaf:
                leaf_count += 1
                depth_sum += node.depth
                max_depth = max(max_depth, node.depth)
            else:
                assert node.children is not None
                stack.extend(node.children)
        avg_depth = depth_sum / leaf_count if leaf_count else 0.0
        return QuadTreeStats(
            leaf_count=leaf_count,
            max_depth=max_depth,
            avg_depth=avg_depth,
            node_count=node_count,
        )

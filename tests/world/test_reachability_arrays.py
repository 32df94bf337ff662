"""Array-backed masks against the per-point, per-segment loops they replaced.

The reference functions below are the scalar code ``TrackMask`` ran before
its segments became arrays.  Everything that leaves a mask — distances,
membership booleans, arc-length points and headings — must equal them
exactly, on open and closed polylines, with duplicate consecutive waypoints
(zero-length segments) and with points on the edge of the band.
"""

import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, Vec2, WorldGrid
from repro.world import FullAreaMask, RoomMask, TrackMask


def reference_segments(waypoints, closed):
    segs = list(zip(waypoints, waypoints[1:]))
    if closed:
        segs.append((waypoints[-1], waypoints[0]))
    return segs


def reference_distance(waypoints, closed, point):
    best = math.inf
    for a, b in reference_segments(waypoints, closed):
        ab = b - a
        ab_len_sq = ab.norm_sq()
        if ab_len_sq == 0:
            dist = point.distance_to(a)
        else:
            t = max(0.0, min(1.0, (point - a).dot(ab) / ab_len_sq))
            dist = point.distance_to(a + ab * t)
        best = min(best, dist)
    return best


def reference_length(waypoints, closed):
    return sum(a.distance_to(b) for a, b in reference_segments(waypoints, closed))


def reference_point_at(waypoints, closed, arc):
    total = reference_length(waypoints, closed)
    if total == 0:
        return waypoints[0]
    if closed:
        arc = arc % total
    else:
        arc = max(0.0, min(arc, total))
    travelled = 0.0
    for a, b in reference_segments(waypoints, closed):
        seg_len = a.distance_to(b)
        if travelled + seg_len >= arc and seg_len > 0:
            return a.lerp(b, (arc - travelled) / seg_len)
        travelled += seg_len
    return waypoints[0] if closed else waypoints[-1]


def reference_heading_at(waypoints, closed, arc):
    eps = max(0.5, reference_length(waypoints, closed) * 1e-4)
    d = reference_point_at(waypoints, closed, arc + eps) - reference_point_at(
        waypoints, closed, arc
    )
    if d.norm() == 0:
        return 0.0
    return d.angle()


# Small-integer coordinates make exact band-edge hits and duplicate waypoints
# common; the float alternatives cover everything in between.
lattice = st.integers(-6, 6).map(float)
coordinate = st.one_of(lattice, st.floats(-8.0, 8.0), lattice.map(lambda v: v + 0.5))
vec = st.builds(Vec2, coordinate, coordinate)
lattice_vec = st.builds(Vec2, lattice, lattice)


@st.composite
def polylines(draw):
    waypoints = draw(st.lists(st.one_of(lattice_vec, vec), min_size=2, max_size=7))
    for index in draw(st.lists(st.integers(0, len(waypoints) - 1), max_size=2)):
        waypoints.insert(index, waypoints[index])  # a zero-length segment
    return waypoints, draw(st.booleans())


half_widths = st.sampled_from([0.5, 1.0, 2.0, 2.5, 0.1 + 0.2])


@given(track=polylines(), half_width=half_widths, points=st.lists(vec, min_size=1, max_size=25))
@settings(max_examples=300, deadline=None)
def test_track_distance_and_membership_match_scalar_reference(track, half_width, points):
    waypoints, closed = track
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])
    expected = [reference_distance(waypoints, closed, p) for p in points]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 on zero-length segments
        mask = TrackMask(waypoints, half_width, closed=closed)
        batch = mask.distances_to_centerline(xs, ys)
        inside = mask.contains_many(xs, ys)
        single = [mask.distance_to_centerline(p) for p in points]
    assert single == expected
    assert batch.tolist() == expected
    assert inside.tolist() == [d <= half_width for d in expected]
    assert [mask(p) for p in points] == inside.tolist()


@given(track=polylines(), arcs=st.lists(st.floats(-40.0, 80.0), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_track_arc_queries_match_scalar_reference(track, arcs):
    waypoints, closed = track
    mask = TrackMask(waypoints, 1.0, closed=closed)
    assert mask.length() == reference_length(waypoints, closed)
    for arc in arcs:
        assert mask.point_at(arc) == reference_point_at(waypoints, closed, arc)
        assert mask.heading_at(arc) == reference_heading_at(waypoints, closed, arc)


def test_band_edge_is_inside_in_both_forms():
    mask = TrackMask([Vec2(0, 0), Vec2(10, 0)], 2.0, closed=False)
    xs, ys = np.array([5.0, 5.0, 12.0]), np.array([2.0, np.nextafter(2.0, 3.0), 0.0])
    assert mask.contains_many(xs, ys).tolist() == [True, False, True]
    assert [mask(Vec2(x, y)) for x, y in zip(xs, ys)] == [True, False, True]


def test_all_waypoints_coincide():
    mask = TrackMask([Vec2(1, 1), Vec2(1, 1), Vec2(1, 1)], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mask.distance_to_centerline(Vec2(4, 5)) == 5.0
        assert mask.distances_to_centerline(np.array([4.0]), np.array([5.0])).tolist() == [5.0]
    assert mask.point_at(3.0) == Vec2(1, 1)
    assert mask.heading_at(3.0) == 0.0


BOUNDS = Rect(-8.0, -8.0, 8.0, 8.0)
world_point = st.builds(Vec2, st.floats(-12.0, 12.0), st.floats(-12.0, 12.0))


def masks(track, half_width):
    waypoints, closed = track
    return [
        TrackMask(waypoints, half_width, closed=closed),
        RoomMask(BOUNDS, wall_inset=half_width),
        FullAreaMask(Rect(-6.0, -6.0, 6.0, 6.0)),
        lambda p: p.x * p.y > 1.0,  # a plain callable: adapted point by point
    ]


@given(
    track=polylines(),
    half_width=half_widths,
    pitch=st.sampled_from([1.0 / 32.0, 0.25, 1.0, 3.0]),
    points=st.lists(st.one_of(vec, world_point), min_size=1, max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_grid_reachable_mask_matches_snap_then_is_reachable(track, half_width, pitch, points):
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])
    for mask in masks(track, half_width):
        grid = WorldGrid(BOUNDS, pitch, reachable=mask)
        expected = [grid.is_reachable(grid.snap(p)) for p in points]
        assert grid.reachable_mask(xs, ys).tolist() == expected
        if not isinstance(mask, TrackMask):
            continue
        # ... and is_reachable itself agrees with the scalar reference.
        waypoints, closed = track
        assert expected == [
            reference_distance(waypoints, closed, grid.to_world(grid.snap(p))) <= half_width
            for p in points
        ]


def test_unmasked_grid_reaches_everywhere():
    grid = WorldGrid(BOUNDS, 1.0)
    assert grid.reachable_mask(np.array([-20.0, 0.0]), np.array([3.0, 99.0])).tolist() == [
        True,
        True,
    ]


@pytest.mark.parametrize("sample_size", [1, 257, 4096])
def test_count_reachable_matches_point_by_point_count(sample_size):
    mask = TrackMask([Vec2(-5, -5), Vec2(5, -5), Vec2(5, 5), Vec2(-5, 5)], 1.5)
    grid = WorldGrid(BOUNDS, 0.25, reachable=mask)
    hits = sum(
        reference_distance(mask.waypoints, True, p) <= 1.5
        for p in BOUNDS.sample(np.random.default_rng(9), sample_size)
    )
    expected = int(round(grid.total_points * hits / sample_size))
    assert grid.count_reachable(np.random.default_rng(9), sample_size) == expected

"""``TrackMask``'s coarse cell index against the whole-polyline pass.

The index may only skip measuring a point whose answer it already knows,
so membership must equal ``distances_to_centerline(xs, ys) <= half_width``
on every point: inside and beyond the index box, exactly on cell edges
and exactly at ``half_width`` from a waypoint, for closed tracks of 2-40
waypoints with repeated waypoints (zero-length segments).  The racing
games' batched verge mask must likewise equal the scalar closure it
replaced, point by point.

``__call__`` measures a point of a near cell over the cell's shortlist of
segments, so the shortlisted distance must equal
``distance_to_centerline`` bit for bit.  ``near_indices(xs, ys, margin)``
may rule a point out only when its exact distance exceeds
``half_width + margin``: ``DensityField.at_many`` skips the track band on
that answer (a margin that reaches past the index grid), and
``WorldGrid.reachable_mask`` skips snapping on it (a margin of two grid
pitches).
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.geometry import Rect, Vec2, WorldGrid
from repro.world import TrackMask, load_game, oval_track
from repro.world.games import _verge_mask
from repro.world.reachability import TRACK_CELL_M

lattice = st.integers(-60, 60).map(float)
coordinate = st.one_of(lattice, st.floats(-60.0, 60.0))
vec = st.builds(Vec2, coordinate, coordinate)


@st.composite
def tracks(draw):
    waypoints = draw(st.lists(vec, min_size=2, max_size=38))
    for index in draw(st.lists(st.integers(0, len(waypoints) - 1), max_size=2)):
        waypoints.insert(index, waypoints[index])  # a zero-length segment
    return waypoints


half_widths = st.one_of(
    st.sampled_from([0.05, 0.5, 1.0, 2.5, 5.0, 50.0, 0.1 + 0.2]),
    st.floats(0.05, 50.0),
)


@st.composite
def probe_points(draw, waypoints, half_width):
    """Points anywhere around the track, on cell edges and on the band edge."""
    # The index box's lower corner, as the mask computes it.
    x0 = min(p.x for p in waypoints) - (half_width + TRACK_CELL_M)
    y0 = min(p.y for p in waypoints) - (half_width + TRACK_CELL_M)
    cells = st.integers(-2, 40)
    anywhere = st.builds(Vec2, st.floats(-250.0, 250.0), st.floats(-250.0, 250.0))
    on_edge = st.one_of(
        st.builds(lambda k, y: Vec2(x0 + k * TRACK_CELL_M, y), cells, coordinate),
        st.builds(lambda x, k: Vec2(x, y0 + k * TRACK_CELL_M), coordinate, cells),
        st.builds(
            lambda i, j: Vec2(x0 + i * TRACK_CELL_M, y0 + j * TRACK_CELL_M), cells, cells
        ),
    )
    waypoint = st.sampled_from(waypoints)
    offset = st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)])
    on_band_edge = st.builds(
        lambda w, d: Vec2(w.x + d[0] * half_width, w.y + d[1] * half_width), waypoint, offset
    )
    near_track = st.builds(
        lambda w, dx, dy: Vec2(w.x + dx * half_width, w.y + dy * half_width),
        waypoint,
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
    )
    return draw(
        st.lists(st.one_of(anywhere, on_edge, on_band_edge, near_track), min_size=1, max_size=40)
    )


@given(data=st.data(), waypoints=tracks(), half_width=half_widths)
@settings(max_examples=300, deadline=None)
def test_membership_equals_the_whole_polyline_pass(data, waypoints, half_width):
    mask = TrackMask(waypoints, half_width)
    points = data.draw(probe_points(waypoints, half_width))
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])
    expected = (mask.distances_to_centerline(xs, ys) <= half_width).tolist()
    assert mask.contains_many(xs, ys).tolist() == expected
    assert [mask(p) for p in points] == expected


@given(
    waypoints=tracks(),
    inner=st.sampled_from([0.5, 5.0]),
    extra=st.sampled_from([0.0, 1.0, 20.0]),
    points=st.lists(vec, min_size=1, max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_batched_verge_mask_equals_the_scalar_closure(waypoints, inner, extra, points):
    track = TrackMask(waypoints, inner)
    outer = inner + extra
    # The exact distance of a waypoint offset lands on the verge's edges.
    points = points + [Vec2(w.x + outer, w.y) for w in waypoints[:3]]
    on_verge = _verge_mask(track, inner, outer)
    batch = on_verge(np.array([p.x for p in points]), np.array([p.y for p in points]))
    assert batch.tolist() == [
        inner < track.distance_to_centerline(p) <= outer for p in points
    ]


def test_far_points_are_answered_without_measuring():
    mask = TrackMask(oval_track(Rect(0.0, 0.0, 400.0, 400.0), 100.0), 5.0)
    far = [Vec2(200.0, 200.0), Vec2(-900.0, 3.0), Vec2(10.0, 10.0)]
    before = perf.counter("reachability.residual_points")
    assert not mask.contains_many(np.array([p.x for p in far]), np.array([p.y for p in far])).any()
    assert not any(mask(p) for p in far)
    assert perf.counter("reachability.residual_points") == before
    on_track = mask.point_at(17.0)
    assert mask(on_track)
    assert perf.counter("reachability.residual_points") == before + 1


def test_racing_index_rules_out_most_of_the_world():
    track = load_game("racing").track
    world = Rect(0.0, 0.0, 1090.0, 1096.0)
    xs, ys = world.sample_arrays(np.random.default_rng(5), 4000)
    before = perf.counter("reachability.residual_points")
    inside = track.contains_many(xs, ys)
    measured = perf.counter("reachability.residual_points") - before
    assert inside.tolist() == (track.distances_to_centerline(xs, ys) <= track.half_width).tolist()
    # The band covers ~2 % of the world; the near cells a few times that.
    assert 0 < inside.sum() <= measured < 0.2 * len(xs)

margins = st.one_of(
    st.sampled_from([0.0, 1.0 / 16.0, 15.0, 20.0, 45.0]),
    st.floats(-0.5, 60.0),
)


@given(data=st.data(), waypoints=tracks(), half_width=half_widths)
@settings(max_examples=300, deadline=None)
def test_shortlisted_distance_equals_all_segments(data, waypoints, half_width):
    mask = TrackMask(waypoints, half_width)
    points = data.draw(probe_points(waypoints, half_width))
    for point in points:
        exact = mask.distance_to_centerline(point)
        shortlisted = mask._near_distance(point)
        if shortlisted is None:
            assert exact > half_width
        else:
            assert shortlisted == exact


@given(data=st.data(), waypoints=tracks(), half_width=half_widths, margin=margins)
@settings(max_examples=300, deadline=None)
def test_near_indices_keep_every_point_within_reach(data, waypoints, half_width, margin):
    mask = TrackMask(waypoints, half_width)
    points = data.draw(probe_points(waypoints, half_width))
    # Points exactly at the reach, off a waypoint.
    points += [Vec2(w.x + half_width + margin, w.y) for w in waypoints[:3]]
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])
    near = set(mask.near_indices(xs, ys, margin).tolist())
    within = mask.distances_to_centerline(xs, ys) <= half_width + margin
    assert {i for i in range(len(points)) if within[i]} <= near


def test_zero_margin_is_the_membership_prefilter():
    track = load_game("racing").track
    xs, ys = Rect(0.0, 0.0, 1090.0, 1096.0).sample_arrays(np.random.default_rng(8), 4000)
    near = track.near_indices(xs, ys, 0.0)
    inside = np.flatnonzero(track.distances_to_centerline(xs, ys) <= track.half_width)
    assert set(inside.tolist()) <= set(near.tolist())
    assert len(near) < 0.2 * len(xs)


def test_band_reach_looks_past_the_index_grid():
    # Racing's band (20 m) reaches past the grid (half_width + one cell),
    # so points outside the grid near the track's bounding box are kept.
    track = load_game("racing").track
    box_west = min(p.x for p in track.waypoints)
    ys = np.array([548.0, 548.0, 548.0])
    xs = np.array([box_west - 14.0, box_west - 19.0, box_west - 40.0])
    near = track.near_indices(xs, ys, 20.0 - track.half_width).tolist()
    assert near[:2] == [0, 1] and 2 not in near


@given(
    data=st.data(),
    waypoints=tracks(),
    half_width=half_widths,
    pitch=st.sampled_from([1.0 / 32.0, 0.25, 1.0, 3.0, 7.5]),
)
@settings(max_examples=200, deadline=None)
def test_grid_prefilter_equals_snap_then_mask(data, waypoints, half_width, pitch):
    mask = TrackMask(waypoints, half_width)
    grid = WorldGrid(Rect(-70.0, -70.0, 70.0, 70.0), pitch, reachable=mask)
    # Anywhere, and within a few pitches of the band, where a snap can
    # carry a point across the band's edge.
    spread = half_width + 3.0 * pitch
    near_band = st.builds(
        lambda w, dx, dy: (w.x + dx, w.y + dy),
        st.sampled_from(waypoints),
        st.floats(-spread, spread),
        st.floats(-spread, spread),
    )
    anywhere = st.tuples(st.floats(-80.0, 80.0), st.floats(-80.0, 80.0))
    points = data.draw(st.lists(st.one_of(anywhere, near_band), min_size=1, max_size=60))
    xs = np.array([x for x, _ in points])
    ys = np.array([y for _, y in points])
    expected = [grid.is_reachable(grid.snap(Vec2(x, y))) for x, y in points]
    assert grid.reachable_mask(xs, ys).tolist() == expected


def test_prefilter_keeps_a_point_whose_snap_lands_on_the_band():
    # Two lanes, y = 0 and y = -4.2, put a cell row at y in [3.3, 11.3):
    # its centre is 7.3 m from the track, beyond the membership reach, yet
    # (0, 3.4) snaps to the lattice point (0, 0) on the band.
    track = TrackMask([Vec2(-60, 0), Vec2(60, 0), Vec2(60, -4.2), Vec2(-60, -4.2)], 0.5)
    grid = WorldGrid(Rect(-75.0, -75.0, 75.0, 75.0), 7.5, reachable=track)
    point = Vec2(0.0, 3.4)
    assert len(track.near_indices(np.array([point.x]), np.array([point.y]), 0.0)) == 0
    assert grid.is_reachable(grid.snap(point))
    assert grid.reachable_mask(np.array([point.x]), np.array([point.y])).tolist() == [True]

"""Tests for procedural generation and the nine game worlds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, Vec2
from repro.world import (
    ALL_GAMES,
    HEADLINE_GAMES,
    INDOOR_GAMES,
    OUTDOOR_GAMES,
    DensityBlob,
    DensityField,
    FlatTerrain,
    KindMixture,
    TrackMask,
    build_game,
    game_spec,
    generate_scene,
    kind,
    load_game,
    oval_track,
)

COORDS = st.floats(-100.0, 300.0)
BLOBS = st.builds(
    lambda x, y, sigma, amplitude: DensityBlob(Vec2(x, y), sigma, amplitude),
    COORDS,
    COORDS,
    st.floats(0.5, 200.0),
    st.floats(0.0, 5e4),
)
TRACK = TrackMask(oval_track(Rect(0.0, 0.0, 200.0, 160.0), margin=25.0), half_width=8.0)


class TestDensityField:
    def test_base_only(self):
        field = DensityField(base=100.0)
        assert field(Vec2(0, 0)) == 100.0

    def test_blob_peaks_at_center(self):
        blob = DensityBlob(center=Vec2(10, 10), sigma=5.0, amplitude=50.0)
        field = DensityField(base=10.0, blobs=[blob])
        assert field(Vec2(10, 10)) == pytest.approx(60.0)
        assert field(Vec2(10, 10)) > field(Vec2(15, 10)) > field(Vec2(40, 10))

    def test_blob_validation(self):
        with pytest.raises(ValueError):
            DensityBlob(Vec2(0, 0), sigma=0.0, amplitude=1.0)
        with pytest.raises(ValueError):
            DensityBlob(Vec2(0, 0), sigma=1.0, amplitude=-1.0)

    @given(
        blobs=st.lists(BLOBS, max_size=12),
        base=st.floats(0.0, 1e4),
        points=st.lists(st.tuples(COORDS, COORDS), max_size=24),
        band=st.sampled_from(["none", "drawn", "edge"]),
        band_width=st.floats(1.0, 80.0),
        band_density=st.floats(0.0, 500.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_equals_scalar(self, blobs, base, points, band, band_width, band_density):
        # Blob centres are exp(0) terms; with "edge" the first point sits
        # exactly on the band's outer edge, where ``<=`` still counts it.
        points = [Vec2(x, y) for x, y in points] + [blob.center for blob in blobs]
        track = None if band == "none" else TRACK
        if band == "edge" and points and TRACK.distance_to_centerline(points[0]) > 0:
            band_width = TRACK.distance_to_centerline(points[0])
        field = DensityField(base, blobs, track, band_width, band_density)
        batch = field.at_many(np.array([p.x for p in points]), np.array([p.y for p in points]))
        assert batch.tolist() == [field(p) for p in points]

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            DensityField(base=-1.0)

    def test_random_blobs_within_bounds(self):
        rng = np.random.default_rng(0)
        bounds = Rect(0, 0, 50, 50)
        blobs = DensityField.random_blobs(bounds, 10, (1, 3), (10, 20), rng)
        assert len(blobs) == 10
        for blob in blobs:
            assert bounds.contains_closed(blob.center)
            assert 1 <= blob.sigma <= 3
            assert 10 <= blob.amplitude <= 20


class TestKindMixture:
    def test_mean_triangles_weighted(self):
        mix = KindMixture(kinds=(kind("grass"), kind("hall")), weights=(1.0, 1.0))
        expected = ((120 + 400) / 2 + (1500000 + 4000000) / 2) / 2
        assert mix.mean_triangles() == pytest.approx(expected)

    def test_draw_respects_weights(self):
        mix = KindMixture(kinds=(kind("grass"), kind("hall")), weights=(1.0, 0.0))
        rng = np.random.default_rng(1)
        assert all(mix.draw(rng).name == "grass" for _ in range(20))

    def test_invalid_mixture(self):
        with pytest.raises(ValueError):
            KindMixture(kinds=(), weights=())
        with pytest.raises(ValueError):
            KindMixture(kinds=(kind("grass"),), weights=(0.0,))
        with pytest.raises(ValueError):
            KindMixture(kinds=(kind("grass"),), weights=(1.0, 2.0))


class TestGenerateScene:
    def _mixture(self):
        return KindMixture(kinds=(kind("tree"), kind("rock")), weights=(0.5, 0.5))

    def test_object_count_tracks_density(self):
        bounds = Rect(0, 0, 80, 80)
        sparse = generate_scene(
            bounds, FlatTerrain(), lambda p: 50.0, self._mixture(), seed=1
        )
        dense = generate_scene(
            bounds, FlatTerrain(), lambda p: 500.0, self._mixture(), seed=1
        )
        assert len(dense) > 3 * len(sparse)

    def test_total_triangles_near_target(self):
        bounds = Rect(0, 0, 100, 100)
        density = 300.0
        scene = generate_scene(
            bounds, FlatTerrain(), lambda p: density, self._mixture(), seed=2
        )
        target = density * bounds.area
        assert 0.6 * target < scene.total_triangles() < 1.5 * target

    def test_deterministic(self):
        bounds = Rect(0, 0, 40, 40)
        a = generate_scene(bounds, FlatTerrain(), lambda p: 200.0, self._mixture(), 7)
        b = generate_scene(bounds, FlatTerrain(), lambda p: 200.0, self._mixture(), 7)
        assert [o.object_id for o in a.objects] == [o.object_id for o in b.objects]
        assert a.total_triangles() == b.total_triangles()

    def test_keep_clear_respected(self):
        bounds = Rect(0, 0, 40, 40)
        scene = generate_scene(
            bounds,
            FlatTerrain(),
            lambda p: 400.0,
            self._mixture(),
            seed=3,
            keep_clear=lambda p: p.x < 20,
        )
        assert all(o.ground_position.x >= 20 for o in scene.objects)

    def test_clutter_pass_adds_light_objects(self):
        bounds = Rect(0, 0, 50, 50)
        clutter = KindMixture(kinds=(kind("grass"),), weights=(1.0,))
        scene = generate_scene(
            bounds,
            FlatTerrain(),
            lambda p: 0.0,
            self._mixture(),
            seed=4,
            clutter_mixture=clutter,
            clutter_per_m2=0.1,
        )
        assert len(scene) > 100
        assert all(o.kind_name == "grass" for o in scene.objects)

    def test_clutter_without_mixture_raises(self):
        with pytest.raises(ValueError):
            generate_scene(
                Rect(0, 0, 10, 10),
                FlatTerrain(),
                lambda p: 0.0,
                self._mixture(),
                seed=5,
                clutter_per_m2=0.1,
            )

    def test_max_objects_cap(self):
        scene = generate_scene(
            Rect(0, 0, 60, 60),
            FlatTerrain(),
            lambda p: 5000.0,
            self._mixture(),
            seed=6,
            max_objects=50,
        )
        assert len(scene) == 50

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_scene(
                Rect(0, 0, 10, 10), FlatTerrain(), lambda p: 1.0,
                self._mixture(), seed=0, placement_cell=0,
            )
        with pytest.raises(ValueError):
            generate_scene(
                Rect(0, 0, 10, 10), FlatTerrain(), lambda p: 1.0,
                self._mixture(), seed=0, clutter_per_m2=-1,
            )


class TestGameCatalog:
    def test_game_lists_consistent(self):
        assert set(ALL_GAMES) == set(OUTDOOR_GAMES) | set(INDOOR_GAMES)
        assert set(HEADLINE_GAMES) <= set(OUTDOOR_GAMES)
        assert len(ALL_GAMES) == 9

    def test_specs_match_table3_dimensions(self):
        assert game_spec("viking").dimensions == (187.0, 130.0)
        assert game_spec("cts").dimensions == (512.0, 512.0)
        assert game_spec("racing").dimensions == (1090.0, 1096.0)
        assert game_spec("ds").dimensions == (1286.0, 361.0)
        assert game_spec("pool").dimensions == (10.0, 13.0)

    def test_unknown_game_raises(self):
        with pytest.raises(KeyError):
            game_spec("tetris")

    def test_indoor_flags(self):
        for name in INDOOR_GAMES:
            assert game_spec(name).indoor
        for name in OUTDOOR_GAMES:
            assert not game_spec(name).indoor


class TestBuildGame:
    def test_small_indoor_game_builds(self):
        gw = build_game("pool")
        assert gw.name == "pool"
        assert len(gw.scene) > 50
        assert gw.track is None

    def test_scaled_outdoor_game(self):
        gw = build_game("viking", scale=0.25)
        assert gw.bounds.width == pytest.approx(187.0 * 0.25)
        assert len(gw.scene) > 50

    def test_racing_game_has_track(self):
        gw = build_game("racing", scale=0.2)
        assert gw.track is not None
        # Track surface itself is object-free.
        for p in [gw.track.point_at(arc) for arc in (0.0, 100.0, 300.0)]:
            blocking = [
                o
                for o in gw.scene.objects_within(p, gw.spec.track_half_width * 0.9)
                if o.kind_name not in ("grass",)
            ]
            assert blocking == []

    def test_spawn_points_reachable_and_clustered(self):
        gw = build_game("viking", scale=0.25)
        points = gw.spawn_points(4)
        assert len(points) == 4
        for p in points:
            assert gw.grid.is_reachable(gw.grid.snap(p))
        max_spread = max(a.distance_to(b) for a in points for b in points)
        assert max_spread < 10.0

    def test_spawn_points_on_track(self):
        gw = build_game("racing", scale=0.2)
        for p in gw.spawn_points(3):
            assert gw.track(p)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            build_game("pool", scale=0.0)
        with pytest.raises(ValueError):
            build_game("pool", scale=2.0)

    def test_spawn_count_validation(self):
        gw = build_game("pool")
        with pytest.raises(ValueError):
            gw.spawn_points(0)

    def test_deterministic_build(self):
        a = build_game("bowling")
        b = build_game("bowling")
        assert len(a.scene) == len(b.scene)
        assert a.scene.total_triangles() == b.scene.total_triangles()

    def test_load_game_caches(self):
        a = load_game("pool")
        b = load_game("pool")
        assert a is b

    def test_load_game_spellings_share_one_entry(self):
        load_game.cache_clear()
        world = load_game("pool")
        assert load_game("pool", scale=1.0) is world
        assert load_game("pool", 1.0) is world
        assert load_game(name="pool", scale=1) is world
        info = load_game.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 3)

    def test_indoor_game_has_walls(self):
        gw = build_game("corridor")
        assert any(o.kind_name == "wall_panel" for o in gw.scene.objects)

    def test_grid_point_count_scales_with_area(self):
        pool = build_game("pool")
        # Pool: 10x13 m at 1024 points/m^2 ~ 0.13 M points (Table 3).
        count = pool.grid_point_count()
        assert 0.08e6 < count < 0.16e6

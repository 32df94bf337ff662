"""Statistical checks on the generated game worlds.

The nine worlds must carry the structure the paper's experiments depend
on: Table 3's dimensions and grid counts, genre-appropriate object
populations, and the density contrasts that drive the cutoff scheme.
"""

import numpy as np
import pytest

from repro.geometry import Vec2
from repro.world import (
    ALL_GAMES,
    HEADLINE_GAMES,
    INDOOR_GAMES,
    game_spec,
    load_game,
)


@pytest.fixture(scope="module", params=HEADLINE_GAMES)
def headline_world(request):
    return load_game(request.param)


class TestWorldPopulations:
    def test_headline_worlds_substantial(self, headline_world):
        assert len(headline_world.scene) > 1000
        assert headline_world.scene.total_triangles() > 10_000_000

    def test_indoor_worlds_modest(self):
        for name in INDOOR_GAMES:
            world = load_game(name)
            assert 50 < len(world.scene) < 3000

    def test_all_objects_inside_bounds(self, headline_world):
        bounds = headline_world.bounds
        for obj in headline_world.scene.objects:
            assert bounds.contains_closed(obj.ground_position)

    def test_object_ids_unique_and_dense(self, headline_world):
        ids = [o.object_id for o in headline_world.scene.objects]
        assert len(set(ids)) == len(ids)

    def test_racing_worlds_have_mountain_ring(self):
        world = load_game("racing")
        mountains = [o for o in world.scene.objects if o.kind_name == "mountain"]
        assert len(mountains) == game_spec("racing").rim_mountains
        # The ring sits beyond the cutoff-search ceiling from the track.
        for mountain in mountains:
            distance = world.track.distance_to_centerline(
                mountain.ground_position
            )
            assert distance > 150.0


class TestDensityStructure:
    def test_viking_has_density_contrast(self):
        """The quadtree needs real contrast to split on (Fig. 8)."""
        world = load_game("viking")
        rng = np.random.default_rng(3)
        densities = [
            world.scene.triangle_density(p, probe_radius=8.0)
            for p in world.bounds.sample(rng, 60)
        ]
        densities = np.array(densities)
        assert densities.max() > 5 * max(np.median(densities), 1.0)

    def test_racing_verge_sparse_forest_dense(self):
        world = load_game("racing")
        spec = game_spec("racing")
        track = world.track
        total = track.length()
        forest_point = track.point_at(spec.track_blob_arcs[0] * total)
        open_point = track.point_at(0.35 * total)
        forest_density = world.scene.triangle_density(forest_point, 20.0)
        open_density = world.scene.triangle_density(open_point, 20.0)
        assert forest_density > 5 * max(open_density, 1.0)

    def test_indoor_density_far_exceeds_outdoor_base(self):
        pool = load_game("pool")
        center_density = pool.scene.triangle_density(pool.bounds.center, 4.0)
        assert center_density > 5_000.0


class TestGridCounts:
    """Table 3's 'Grid Points' column, per construction."""

    @pytest.mark.parametrize(
        "game,expected_m",
        [("viking", 24.9), ("cts", 268.4), ("fps", 5.09), ("soccer", 14.9)],
    )
    def test_full_area_games_exact(self, game, expected_m):
        world = load_game(game)
        count = world.grid_point_count(np.random.default_rng(0))
        assert count == pytest.approx(expected_m * 1e6, rel=0.05)

    @pytest.mark.parametrize("game", ["racing", "ds"])
    def test_track_games_reach_small_fraction(self, game):
        world = load_game(game)
        count = world.grid_point_count(np.random.default_rng(0))
        assert count < 0.1 * world.grid.total_points

    def test_pitch_is_table3_lattice(self):
        world = load_game("pool")
        assert world.grid.pitch == pytest.approx(1.0 / 32.0)


class TestSpawnGeometry:
    @pytest.mark.parametrize("game", ALL_GAMES)
    def test_four_player_spawns_valid(self, game):
        world = load_game(game)
        spawns = world.spawn_points(4)
        assert len(spawns) == 4
        assert len(set(spawns)) == 4  # distinct
        for spawn in spawns:
            assert world.grid.is_reachable(world.grid.snap(spawn))

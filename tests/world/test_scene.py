"""Tests for Scene spatial queries and the near/far BE partition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, Vec2, Vec3
from repro.world import Scene, SceneObject


def obj_at(object_id, x, y, triangles=1000, radius=1.0):
    return SceneObject(
        object_id=object_id,
        kind_name="tree",
        center=Vec3(x, y, radius),
        radius=radius,
        triangles=triangles,
        luminance=0.3,
        contrast=0.4,
        texture_seed=object_id,
    )


@pytest.fixture
def scene():
    objects = [
        obj_at(0, 10.0, 10.0, triangles=100),
        obj_at(1, 12.0, 10.0, triangles=200),
        obj_at(2, 30.0, 30.0, triangles=400),
        obj_at(3, 90.0, 90.0, triangles=800),
    ]
    return Scene(Rect(0, 0, 100, 100), objects, terrain=lambda p: 0.0)


class TestSceneBasics:
    def test_len_and_total_triangles(self, scene):
        assert len(scene) == 4
        assert scene.total_triangles() == 1500

    def test_duplicate_ids_rejected(self):
        objs = [obj_at(0, 1, 1), obj_at(0, 2, 2)]
        with pytest.raises(ValueError):
            Scene(Rect(0, 0, 10, 10), objs, terrain=lambda p: 0.0)

    def test_bad_cell_size(self):
        with pytest.raises(ValueError):
            Scene(Rect(0, 0, 10, 10), [], lambda p: 0.0, cell_size=0)

    def test_objects_returns_copy(self, scene):
        listing = scene.objects
        listing.clear()
        assert len(scene) == 4


class TestRadiusQueries:
    def test_objects_within(self, scene):
        ids = {o.object_id for o in scene.objects_within(Vec2(10, 10), 3.0)}
        assert ids == {0, 1}

    def test_objects_within_zero_radius(self, scene):
        ids = {o.object_id for o in scene.objects_within(Vec2(10, 10), 0.0)}
        assert ids == {0}

    def test_objects_within_negative_raises(self, scene):
        with pytest.raises(ValueError):
            scene.objects_within(Vec2(0, 0), -1.0)

    def test_triangles_within(self, scene):
        assert scene.triangles_within(Vec2(10, 10), 3.0) == 300
        assert scene.triangles_within(Vec2(50, 50), 1.0) == 0

    def test_annulus(self, scene):
        ids = {o.object_id for o in scene.objects_in_annulus(Vec2(10, 10), 1.0, 40.0)}
        assert ids == {1, 2}

    def test_annulus_invalid(self, scene):
        with pytest.raises(ValueError):
            scene.objects_in_annulus(Vec2(0, 0), 5.0, 2.0)

    def test_triangle_density(self, scene):
        density = scene.triangle_density(Vec2(10, 10), probe_radius=5.0)
        assert density == pytest.approx(300 / (np.pi * 25.0))

    def test_triangle_density_bad_probe(self, scene):
        with pytest.raises(ValueError):
            scene.triangle_density(Vec2(0, 0), probe_radius=0)

    @settings(max_examples=25)
    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=60),
    )
    def test_spatial_index_matches_brute_force(self, x, y, radius):
        objects = [obj_at(i, 7.0 * i % 97, 13.0 * i % 89) for i in range(40)]
        scene = Scene(Rect(0, 0, 100, 100), objects, lambda p: 0.0, cell_size=9.0)
        center = Vec2(x, y)
        fast = {o.object_id for o in scene.objects_within(center, radius)}
        brute = {
            o.object_id
            for o in objects
            if (o.ground_position - center).norm_sq() <= radius * radius
        }
        assert fast == brute


class TestPartition:
    def test_near_far_split(self, scene):
        part = scene.partition(Vec2(10, 10), cutoff_radius=5.0)
        assert {o.object_id for o in part.near} == {0, 1}
        assert {o.object_id for o in part.far} == {2, 3}

    def test_partition_is_exhaustive_and_disjoint(self, scene):
        part = scene.partition(Vec2(10, 10), cutoff_radius=25.0)
        near_ids = {o.object_id for o in part.near}
        far_ids = {o.object_id for o in part.far}
        assert near_ids | far_ids == {0, 1, 2, 3}
        assert near_ids & far_ids == set()

    def test_negative_cutoff_raises(self, scene):
        with pytest.raises(ValueError):
            scene.partition(Vec2(0, 0), cutoff_radius=-1.0)

    def test_near_ids_matches_near_object_ids(self, scene):
        part = scene.partition(Vec2(10, 10), cutoff_radius=5.0)
        assert part.near_ids == scene.near_object_ids(Vec2(10, 10), 5.0)

    def test_partition_deterministic_order(self, scene):
        a = scene.partition(Vec2(10, 10), 25.0)
        b = scene.partition(Vec2(10, 10), 25.0)
        assert [o.object_id for o in a.far] == [o.object_id for o in b.far]

    def test_cutoff_zero_puts_everything_far(self, scene):
        part = scene.partition(Vec2(50, 50), cutoff_radius=0.0)
        assert len(part.near) == 0
        assert len(part.far) == 4

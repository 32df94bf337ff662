"""Tests for the object-kind catalog and SceneObject."""

import numpy as np
import pytest

from repro.geometry import Vec2, Vec3
from repro.world import ObjectKind, SceneObject, catalog, kind, make_object


class TestCatalog:
    def test_known_kinds_present(self):
        names = set(catalog())
        assert {"tree", "hut", "hall", "grove", "pool_table", "wall_panel"} <= names

    def test_lookup(self):
        assert kind("tree").name == "tree"

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            kind("spaceship")

    def test_catalog_returns_copy(self):
        snapshot = catalog()
        snapshot["fake"] = None
        assert "fake" not in catalog()

    def test_all_kinds_valid_ranges(self):
        for k in catalog().values():
            assert 0 < k.triangles[0] <= k.triangles[1]
            assert 0 < k.radius[0] <= k.radius[1]
            assert 0.0 <= k.luminance <= 1.0
            assert 0.0 <= k.contrast <= 1.0

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            ObjectKind("bad", (0, 10), (1.0, 2.0), 0.5, 0.5)
        with pytest.raises(ValueError):
            ObjectKind("bad", (10, 5), (1.0, 2.0), 0.5, 0.5)
        with pytest.raises(ValueError):
            ObjectKind("bad", (1, 10), (2.0, 1.0), 0.5, 0.5)
        with pytest.raises(ValueError):
            ObjectKind("bad", (1, 10), (1.0, 2.0), 1.5, 0.5)


class TestSceneObject:
    def _obj(self, x=0.0, y=0.0, radius=1.0):
        return SceneObject(
            object_id=1,
            kind_name="tree",
            center=Vec3(x, y, radius),
            radius=radius,
            triangles=1000,
            luminance=0.3,
            contrast=0.4,
            texture_seed=42,
        )

    def test_ground_position(self):
        obj = self._obj(3.0, 4.0)
        assert obj.ground_position == Vec2(3.0, 4.0)

    def test_ground_distance(self):
        obj = self._obj(3.0, 4.0)
        assert obj.ground_distance_to(Vec2(0, 0)) == 5.0

    def test_invalid_radius_raises(self):
        with pytest.raises(ValueError):
            SceneObject(1, "tree", Vec3(0, 0, 0), -1.0, 100, 0.3, 0.4, 0)

    def test_invalid_triangles_raises(self):
        with pytest.raises(ValueError):
            SceneObject(1, "tree", Vec3(0, 0, 0), 1.0, 0, 0.3, 0.4, 0)


class TestMakeObject:
    def test_values_within_kind_ranges(self):
        rng = np.random.default_rng(7)
        tree = kind("tree")
        for i in range(50):
            obj = make_object(i, tree, Vec2(1.0, 2.0), 0.0, rng)
            assert tree.triangles[0] <= obj.triangles <= tree.triangles[1]
            assert tree.radius[0] <= obj.radius <= tree.radius[1]
            assert 0.0 <= obj.luminance <= 1.0

    def test_grounded_object_sits_on_terrain(self):
        rng = np.random.default_rng(7)
        obj = make_object(0, kind("rock"), Vec2(0, 0), terrain_height=5.0, rng=rng)
        assert obj.center.z == pytest.approx(5.0 + obj.radius)

    def test_deterministic_given_rng_seed(self):
        a = make_object(0, kind("tree"), Vec2(0, 0), 0.0, np.random.default_rng(3))
        b = make_object(0, kind("tree"), Vec2(0, 0), 0.0, np.random.default_rng(3))
        assert a == b

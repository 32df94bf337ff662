"""Cross-cutting edge cases: seams, boundaries, and tiny worlds."""

import numpy as np
import pytest

from repro.codec import FrameCodec
from repro.geometry import Rect, Vec2, Vec3, WorldGrid
from repro.net import WifiLink
from repro.render import RenderConfig, empty_layer, draw_objects
from repro.sim import Simulator
from repro.world import ObjectArrays, Scene, SceneObject


class TestSeamObjects:
    def test_object_straddling_seam_draws_on_both_edges(self):
        cfg = RenderConfig(width=128, height=64)
        eye = Vec3(100.0, 100.0, 1.7)
        # Object dead ahead at azimuth ~0: its disk wraps the panorama seam.
        obj = SceneObject(1, "tree", Vec3(104.0, 100.0, 2.0), 2.0, 1000,
                          0.9, 0.3, 5)
        layer = empty_layer(cfg)
        draw_objects(layer, ObjectArrays.from_objects([obj]), eye, cfg)
        cols = np.nonzero(layer.mask.any(axis=0))[0]
        assert 0 in cols or 127 in cols
        assert len(cols) > 2

    def test_object_at_eye_position_skipped(self):
        cfg = RenderConfig(width=64, height=32)
        eye = Vec3(10.0, 10.0, 1.0)
        obj = SceneObject(1, "tree", Vec3(10.0, 10.0, 1.0), 1.0, 100,
                          0.5, 0.3, 1)
        layer = empty_layer(cfg)
        # Zero distance: must not crash.
        draw_objects(layer, ObjectArrays.from_objects([obj]), eye, cfg)


class TestTinyWorlds:
    def test_one_cell_grid(self):
        grid = WorldGrid(Rect(0, 0, 0.01, 0.01), pitch=1.0)
        assert grid.total_points == 1
        assert grid.snap(Vec2(0.005, 0.005)) == (0, 0)
        assert not any(
            grid.in_range((di, dj))
            for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)
        )

    def test_single_object_scene_queries(self):
        obj = SceneObject(0, "rock", Vec3(1, 1, 0.5), 0.5, 300, 0.4, 0.2, 0)
        scene = Scene(Rect(0, 0, 2, 2), [obj], lambda p: 0.0)
        assert scene.triangles_within(Vec2(1, 1), 0.0) == 300
        assert scene.objects_in_annulus(Vec2(1, 1), 0.0, 5.0) == []
        part = scene.partition(Vec2(0, 0), cutoff_radius=0.5)
        assert len(part.far) == 1


class TestCodecExtremes:
    def test_all_black_and_all_white(self):
        codec = FrameCodec()
        for value in (0.0, 1.0):
            frame = np.full((32, 32), value, dtype=np.float32)
            decoded = codec.decode(codec.encode(frame))
            assert np.abs(decoded - frame).max() < 0.05

    def test_minimum_size_frame(self):
        codec = FrameCodec()
        frame = np.random.default_rng(1).random((8, 8)).astype(np.float32)
        decoded = codec.decode(codec.encode(frame))
        assert decoded.shape == (8, 8)

    def test_extreme_crf_values(self):
        frame = np.random.default_rng(2).random((16, 16)).astype(np.float32)
        for crf in (0.0, 51.0):
            codec = FrameCodec(crf=crf)
            decoded = codec.decode(codec.encode(frame))
            assert np.all((decoded >= 0) & (decoded <= 1))


class TestLinkExtremes:
    def test_many_stations_still_positive_capacity(self):
        link = WifiLink(Simulator(), stations=50)
        assert 0.0 < link.mac_efficiency < 0.2

    def test_huge_transfer_completes(self):
        sim = Simulator()
        link = WifiLink(sim, capacity_mbps=100.0, overhead_ms=0.0)
        done = {}

        def proc():
            duration = yield link.transfer(125_000_000)  # one gigabit
            done["ms"] = duration

        sim.spawn(proc())
        sim.run()
        assert done["ms"] == pytest.approx(10_000.0)

    def test_invalid_station_count(self):
        with pytest.raises(ValueError):
            WifiLink(Simulator(), stations=0)

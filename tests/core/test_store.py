"""Tests for the content-addressed panorama disk cache."""

import dataclasses
import json

import numpy as np
import pytest

from repro.codec import FrameCodec
from repro.core.store import (
    CACHE_SCHEMA_VERSION,
    PanoramaDiskCache,
    canonical_json,
    content_digest,
    world_cache_key,
)
from repro.render.rasterizer import RenderConfig


def make_key(seed=3, crf=None, width=64):
    config = RenderConfig(width=width, height=32)
    crf = crf if crf is not None else FrameCodec().crf
    return world_cache_key("racing", 0.2, seed, config, crf, 1.7)


def make_frame(seed=0, shape=(32, 64)):
    image = np.random.default_rng(seed).random(shape).astype(np.float32)
    return image, FrameCodec().encode(image)


class TestAddressing:
    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_digest_changes_with_content(self):
        assert content_digest({"a": 1}) != content_digest({"a": 2})

    def test_world_key_covers_render_config(self):
        assert make_key(width=64) != make_key(width=128)
        assert make_key(crf=20.0) != make_key(crf=30.0)
        assert make_key(seed=1) != make_key(seed=2)

    def test_cache_key_still_sees_other_render_knobs(self):
        """Every ``RenderConfig`` field is a key ingredient — none is
        filtered out, so no rendering knob can change without moving the
        address."""
        base = RenderConfig(width=64, height=32)
        base_key = world_cache_key("racing", 0.2, 0, base, 23.0, 1.7)
        for field in dataclasses.fields(RenderConfig):
            value = getattr(base, field.name)
            changed = dataclasses.replace(
                base, **{field.name: (not value) if isinstance(value, bool) else value * 2}
            )
            assert world_cache_key("racing", 0.2, 0, changed, 23.0, 1.7) != base_key, field.name

    def test_default_world_key_digest_is_pinned(self):
        """Cache directories written by earlier versions stay valid: the
        default racing key hashes to the value it always has (recorded
        with ``RenderConfig.kernels`` still present and filtered out)."""
        key = world_cache_key("racing", 1.0, 3, RenderConfig(), 25.0, 1.7)
        assert content_digest(key) == (
            "1a9ea6e5211216b47fa7932e18d28d933c169f1457efe7f78dd043cfb0fa446f"
        )


class TestFrameRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cache = PanoramaDiskCache(tmp_path, make_key())
        image, encoded = make_frame()
        assert cache.load_frame((1.0, 2.0), 5.0, "far") is None
        cache.store_frame((1.0, 2.0), 5.0, "far", image, encoded)
        hit = cache.load_frame((1.0, 2.0), 5.0, "far")
        assert hit is not None
        got_image, got_encoded = hit
        assert np.array_equal(got_image, image)
        assert got_encoded.data == encoded.data
        assert got_encoded.width == encoded.width
        assert got_encoded.height == encoded.height
        assert got_encoded.crf == encoded.crf
        assert got_encoded.is_keyframe == encoded.is_keyframe
        assert cache.stats().hits == 1
        assert cache.stats().misses == 1

    def test_key_ingredients_partition_entries(self, tmp_path):
        cache = PanoramaDiskCache(tmp_path, make_key())
        image, encoded = make_frame()
        cache.store_frame((1.0, 2.0), 5.0, "far", image, encoded)
        assert cache.load_frame((1.0, 2.1), 5.0, "far") is None
        assert cache.load_frame((1.0, 2.0), 6.0, "far") is None
        assert cache.load_frame((1.0, 2.0), 5.0, "whole") is None

    def test_different_world_key_misses(self, tmp_path):
        writer = PanoramaDiskCache(tmp_path, make_key(seed=1))
        reader = PanoramaDiskCache(tmp_path, make_key(seed=2))
        image, encoded = make_frame()
        writer.store_frame((0.0, 0.0), 1.0, "far", image, encoded)
        assert reader.load_frame((0.0, 0.0), 1.0, "far") is None
        assert writer.load_frame((0.0, 0.0), 1.0, "far") is not None

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        cache = PanoramaDiskCache(tmp_path, make_key())
        image, encoded = make_frame()
        cache.store_frame((0.0, 0.0), 1.0, "far", image, encoded)
        monkeypatch.setattr(
            "repro.core.store.CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1
        )
        assert cache.load_frame((0.0, 0.0), 1.0, "far") is None

    def test_corrupt_entry_degrades_to_miss_and_is_dropped(self, tmp_path):
        cache = PanoramaDiskCache(tmp_path, make_key())
        image, encoded = make_frame()
        cache.store_frame((0.0, 0.0), 1.0, "far", image, encoded)
        (entry,) = list(tmp_path.glob("f_*.npz"))
        entry.write_bytes(b"garbage")
        assert cache.load_frame((0.0, 0.0), 1.0, "far") is None
        assert not entry.exists()


class TestValueRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cache = PanoramaDiskCache(tmp_path, make_key())
        payload = {"leaf": [0.0, 0.0, 4.0, 4.0], "k_samples": 2, "seed": 0}
        assert cache.load_value("dist_thresh", payload) is None
        cache.store_value("dist_thresh", payload, 3.25)
        assert cache.load_value("dist_thresh", payload) == 3.25

    def test_namespaces_are_disjoint(self, tmp_path):
        cache = PanoramaDiskCache(tmp_path, make_key())
        cache.store_value("a", {"x": 1}, "one")
        assert cache.load_value("b", {"x": 1}) is None

    def test_corrupt_value_degrades_to_miss(self, tmp_path):
        cache = PanoramaDiskCache(tmp_path, make_key())
        cache.store_value("a", {"x": 1}, "one")
        (entry,) = list(tmp_path.glob("v_*.json"))
        entry.write_text(json.dumps({"key": "wrong", "value": "evil"}))
        assert cache.load_value("a", {"x": 1}) is None


class TestEviction:
    def test_lru_cap_enforced(self, tmp_path):
        image, encoded = make_frame()
        probe = PanoramaDiskCache(tmp_path, make_key())
        probe.store_frame((0.0, 0.0), 1.0, "far", image, encoded)
        entry_bytes = probe.size_bytes()
        cache = PanoramaDiskCache(
            tmp_path / "capped", make_key(), max_bytes=3 * entry_bytes
        )
        for index in range(6):
            cache.store_frame((float(index), 0.0), 1.0, "far", image, encoded)
        assert cache.size_bytes() <= 3 * entry_bytes
        assert cache.evictions >= 3
        assert cache.entry_count() <= 3

    def test_recently_used_survives(self, tmp_path):
        import os
        import time as time_module

        image, encoded = make_frame()
        probe = PanoramaDiskCache(tmp_path, make_key())
        probe.store_frame((0.0, 0.0), 1.0, "far", image, encoded)
        entry_bytes = probe.size_bytes()
        root = tmp_path / "capped"
        cache = PanoramaDiskCache(root, make_key(), max_bytes=2 * entry_bytes)
        cache.store_frame((1.0, 0.0), 1.0, "far", image, encoded)
        cache.store_frame((2.0, 0.0), 1.0, "far", image, encoded)
        # Backdate the first entry, touch it via a hit, then overflow: the
        # hit must have refreshed its recency so the *second* entry goes.
        for entry in root.iterdir():
            os.utime(entry, (time_module.time() - 100, time_module.time() - 100))
        assert cache.load_frame((1.0, 0.0), 1.0, "far") is not None
        cache.store_frame((3.0, 0.0), 1.0, "far", image, encoded)
        assert cache.load_frame((1.0, 0.0), 1.0, "far") is not None
        assert cache.load_frame((2.0, 0.0), 1.0, "far") is None

    def test_invalid_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            PanoramaDiskCache(tmp_path, make_key(), max_bytes=0)

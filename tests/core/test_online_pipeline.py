"""Tests for the batched online frame loop and its building blocks."""

import numpy as np
import pytest

from repro.codec import FrameCodec
from repro.core.merger import compose_display, compose_display_into
from repro.core.online import (
    OnlineFrameLoop,
    PlayerFrameInput,
    SsimBatchQueue,
)
from repro.core.pipeline import (
    PipelineTimings,
    batched_frame_intervals_ms,
    frame_interval_ms,
    frame_intervals_ms,
)
from repro.geometry import Vec2
from repro.render.rasterizer import Layer
from repro.similarity import ssim

SHAPE = (16, 32)


def textured_frame(seed, shape=SHAPE):
    rng = np.random.default_rng(seed)
    y = np.linspace(0, 1, shape[0])[:, None]
    coarse = rng.random(((shape[0] + 3) // 4, (shape[1] + 3) // 4))
    detail = np.kron(coarse, np.ones((4, 4)))[: shape[0], : shape[1]] * 0.25
    return np.clip(0.3 + 0.4 * y + detail, 0, 1).astype(np.float32)


def layer(seed, coverage=0.3, shape=SHAPE):
    rng = np.random.default_rng(seed + 1000)
    return Layer(
        image=rng.random(shape).astype(np.float32),
        mask=rng.random(shape) < coverage,
        depth=np.full(shape, 1.0),
    )


def build_schedule(codec, n_ticks=12, n_players=3, cell=4):
    """A synthetic multi-player schedule with genuine hits and misses.

    Players walk along a line; panorama viewpoints snap to ``cell``-sized
    segments so each encoded frame serves a run of ticks.
    """
    near_sets = [frozenset({1, 2}), frozenset({1, 2, 3})]
    encoded = {}
    ticks = []
    for t in range(n_ticks):
        tick = []
        for p in range(n_players):
            step = t + 3 * p
            gx = (step // cell) * cell
            key = (gx, p % 2)
            if key not in encoded:
                encoded[key] = codec.encode(textured_frame(hash(key) % 1000))
            tick.append(
                PlayerFrameInput(
                    grid_point=key,
                    position=Vec2(float(gx), float(p)),
                    leaf=("leaf", p % 2),
                    near_ids=near_sets[p % 2],
                    dist_thresh=1.5,
                    encoded=encoded[key],
                    wire_bytes=1200 + 10 * p,
                    near_layer=layer(step),
                    fi_layer=layer(step + 500) if p else None,
                    reference=textured_frame(step + 2000),
                )
            )
        ticks.append(tick)
    return ticks


class TestCrossModeIdentity:
    @pytest.fixture(scope="class")
    def schedule(self):
        return build_schedule(FrameCodec())

    def test_digest_and_metrics_identical(self, schedule):
        loop = OnlineFrameLoop(
            ticks=schedule, ssim_stride=2, ssim_batch_target=5
        )
        scalar = loop.run(batched=False)
        vector = loop.run(batched=True)
        assert scalar.fetches > 0 and scalar.cache_hits > 0
        assert scalar.metrics() == vector.metrics()

    def test_ssim_values_match_inline(self, schedule):
        loop = OnlineFrameLoop(
            ticks=schedule, ssim_stride=1, ssim_batch_target=4
        )
        scalar = loop.run(batched=False)
        batched = loop.run(batched=True)
        assert scalar.ssim_values == batched.ssim_values
        assert len(scalar.ssim_values) == sum(len(t) for t in schedule)

    def test_invalid_config(self, schedule):
        with pytest.raises(ValueError):
            OnlineFrameLoop(ticks=schedule, ssim_stride=0)
        with pytest.raises(ValueError):
            OnlineFrameLoop(ticks=schedule, link_mbps=0.0)


class TestSsimBatchQueue:
    def test_scores_match_inline_in_submission_order(self):
        queue = SsimBatchQueue(batch_target=100)
        got = []
        pairs = [
            (textured_frame(s), textured_frame(s + 30)) for s in range(7)
        ]
        for a, b in pairs:
            queue.submit(a, b, got.append)
        assert got == []  # deferred until the flush
        queue.flush()
        assert got == [ssim(a, b) for a, b in pairs]

    def test_auto_flush_at_batch_target(self):
        queue = SsimBatchQueue(batch_target=3)
        got = []
        for s in range(3):
            queue.submit(textured_frame(s), textured_frame(s + 9), got.append)
        assert len(got) == 3 and len(queue) == 0
        assert queue.flushes == 1

    def test_mixed_shapes_grouped(self):
        queue = SsimBatchQueue(batch_target=100)
        got = []
        pairs = [
            (textured_frame(0), textured_frame(1)),
            (textured_frame(2, (24, 24)), textured_frame(3, (24, 24))),
            (textured_frame(4), textured_frame(5)),
        ]
        for a, b in pairs:
            queue.submit(a, b, got.append)
        queue.flush()
        assert got == [ssim(a, b) for a, b in pairs]

    def test_on_flush_hook_and_counts(self):
        queue = SsimBatchQueue(batch_target=2)
        seen = []
        queue.on_flush = seen.append
        for s in range(4):
            queue.submit(textured_frame(s), textured_frame(s + 4),
                         lambda _v: None)
        assert seen == [2, 2]
        assert queue.jobs_total == 4

    def test_empty_flush_is_noop(self):
        queue = SsimBatchQueue()
        queue.flush()
        assert queue.flushes == 0

    def test_invalid_batch_target(self):
        with pytest.raises(ValueError):
            SsimBatchQueue(batch_target=0)


class TestComposeDisplayInto:
    def test_matches_compose_display(self):
        far = textured_frame(0)
        near, fi = layer(1), layer(2)
        out = np.empty(SHAPE, dtype=np.float32)
        result = compose_display_into(out, far, near, fi)
        assert result is out
        np.testing.assert_array_equal(result, compose_display(far, near, fi))

    def test_without_fi_layer(self):
        far, near = textured_frame(3), layer(4)
        out = np.empty(SHAPE, dtype=np.float32)
        np.testing.assert_array_equal(
            compose_display_into(out, far, near),
            compose_display(far, near),
        )

    def test_validates_buffer(self):
        far, near = textured_frame(5), layer(6)
        with pytest.raises(ValueError):
            compose_display_into(
                np.empty(SHAPE, dtype=np.float64), far, near
            )
        with pytest.raises(ValueError):
            compose_display_into(
                np.empty((8, 8), dtype=np.float32), far, near
            )


class TestFrameIntervals:
    def timings(self, prefetch_ms):
        return PipelineTimings(
            render_fi_ms=3.0, render_near_be_ms=4.0, decode_ms=3.7,
            prefetch_ms=prefetch_ms, sync_ms=1.0, merge_ms=1.0, setup_ms=0.5,
        )

    def test_batch_matches_scalar(self):
        seq = [self.timings(p) for p in (0.0, 5.0, 16.0, 40.0)]
        batch = frame_intervals_ms(seq)
        assert list(batch) == [frame_interval_ms(t) for t in seq]

    def test_quantized_batch_matches_scalar(self):
        seq = [self.timings(p) for p in (0.0, 16.0, 17.0, 40.0)]
        batch = frame_intervals_ms(seq, quantize=True)
        assert list(batch) == [
            frame_interval_ms(t, quantize=True) for t in seq
        ]

    def test_constant_task_fast_path_matches(self):
        prefetch = np.array([0.0, 5.0, 16.0, 40.0])
        fast = batched_frame_intervals_ms(
            prefetch, render_ms=7.5, decode_ms=3.7, sync_ms=1.0, merge_ms=1.0
        )
        slow = frame_intervals_ms([self.timings(p) for p in prefetch])
        assert list(fast) == list(slow)

    def test_validation(self):
        with pytest.raises(ValueError):
            frame_intervals_ms([], target_interval_ms=0.0)
        with pytest.raises(ValueError):
            batched_frame_intervals_ms(
                np.zeros(1), render_ms=1.0, decode_ms=1.0, sync_ms=1.0,
                merge_ms=1.0, target_interval_ms=-1.0,
            )

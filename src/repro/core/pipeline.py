"""The Coterie per-interval client pipeline and its latency law (Eq. 2).

During each rendering interval the client performs four time-critical
tasks concurrently — (1) FI + near-BE rendering, (2) decoding the
prefetched far BE, (3) prefetching/caching, (4) FI synchronization —
followed by merging:

    T_split_render = max(T_render_FI + T_render_nearBE,
                         T_decode_farBE,
                         T_prefetch_next_farBE,
                         T_sync_FI) + T_merge
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PipelineTimings:
    """Latencies of one interval's tasks, all in milliseconds."""

    render_fi_ms: float
    render_near_be_ms: float
    decode_ms: float
    prefetch_ms: float
    sync_ms: float
    merge_ms: float
    setup_ms: float = 0.0

    def __post_init__(self) -> None:
        values = (
            self.render_fi_ms,
            self.render_near_be_ms,
            self.decode_ms,
            self.prefetch_ms,
            self.sync_ms,
            self.merge_ms,
            self.setup_ms,
        )
        if any(v < 0 for v in values):
            raise ValueError("pipeline latencies must be non-negative")

    @property
    def render_ms(self) -> float:
        """The GPU-serial task: FI and near BE share the render engine."""
        return self.setup_ms + self.render_fi_ms + self.render_near_be_ms

    def split_render_ms(self) -> float:
        """Eq. 2: the concurrent tasks' max, plus merging."""
        return (
            max(self.render_ms, self.decode_ms, self.prefetch_ms, self.sync_ms)
            + self.merge_ms
        )


def frame_interval_ms(
    timings: PipelineTimings,
    target_interval_ms: float = 1000.0 / 60.0,
    quantize: bool = False,
) -> float:
    """Actual display interval for one pipeline iteration.

    A pipeline faster than the 60 Hz refresh waits for vsync (interval =
    16.7 ms).  A slower one free-runs by default — Android's display path
    latches whichever frame is ready at each refresh, so sustained 22 ms
    pipelines show ~45 FPS (the paper's Multi-Furion 2P numbers), not a
    hard halving; pass ``quantize=True`` for strict beat-multiple vsync.
    """
    if target_interval_ms <= 0:
        raise ValueError("target_interval_ms must be positive")
    total = timings.split_render_ms()
    if not quantize:
        return max(total, target_interval_ms)
    import math

    beats = max(1, math.ceil(total / target_interval_ms - 1e-9))
    return beats * target_interval_ms

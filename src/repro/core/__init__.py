"""Coterie's core contribution: cutoff scheme, frame cache, prefetcher."""

from .cache import FLF, LRU, CachedFrame, CacheStats, FrameCache
from .constraint import (
    FRAME_BUDGET_MS,
    PAPER_FI_BOUND_MS,
    BandwidthBudget,
    RenderBudget,
    measure_fi_budget,
    satisfies_bandwidth_constraint,
    satisfies_constraint,
)
from .cutoff import (
    CutoffMap,
    CutoffSchemeConfig,
    LeafCutoff,
    LeafKey,
    build_cutoff_map,
    exact_max_radius,
    leaf_key,
    max_radius_satisfying,
)
from .dist_thresh import (
    DistThreshMap,
    leaf_threshold,
    measure_dist_thresh,
)
from .merger import (
    compose_display,
    compose_display_into,
    layer_from_decoded,
)
from .online import SsimBatchQueue
from .pipeline import PipelineTimings, frame_interval_ms
from .prefetch import PrefetchDecision, Prefetcher
from .preprocess import (
    FrameSizeModel,
    OfflineArtifacts,
    PanoramaStore,
    StoredFrame,
    calibrate_size_model,
    preprocess_game,
)

__all__ = [
    "CachedFrame",
    "CacheStats",
    "CutoffMap",
    "CutoffSchemeConfig",
    "DistThreshMap",
    "FLF",
    "FRAME_BUDGET_MS",
    "FrameCache",
    "FrameSizeModel",
    "LRU",
    "LeafCutoff",
    "LeafKey",
    "OfflineArtifacts",
    "PAPER_FI_BOUND_MS",
    "PanoramaStore",
    "PipelineTimings",
    "PrefetchDecision",
    "Prefetcher",
    "SsimBatchQueue",
    "BandwidthBudget",
    "RenderBudget",
    "StoredFrame",
    "build_cutoff_map",
    "calibrate_size_model",
    "compose_display",
    "compose_display_into",
    "exact_max_radius",
    "frame_interval_ms",
    "layer_from_decoded",
    "leaf_key",
    "leaf_threshold",
    "max_radius_satisfying",
    "measure_dist_thresh",
    "measure_fi_budget",
    "preprocess_game",
    "satisfies_bandwidth_constraint",
    "satisfies_constraint",
]

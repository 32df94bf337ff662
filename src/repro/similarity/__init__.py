"""Frame-similarity metrics (SSIM and the paper's locality statistics)."""

from .metrics import (
    adjacent_similarities,
    best_case_similarities,
    fraction_above,
)
from .ssim import (
    SSIM_GOOD,
    CandidateMoments,
    SsimReference,
    prepare_reference,
    ssim,
    ssim_many,
    ssim_many_stacked,
    ssim_map,
    ssim_map_update,
    ssim_map_with,
    ssim_pairs,
    ssim_with,
    ssim_with_update,
)

__all__ = [
    "SSIM_GOOD",
    "CandidateMoments",
    "SsimReference",
    "adjacent_similarities",
    "best_case_similarities",
    "fraction_above",
    "prepare_reference",
    "ssim",
    "ssim_many",
    "ssim_many_stacked",
    "ssim_map",
    "ssim_map_update",
    "ssim_map_with",
    "ssim_pairs",
    "ssim_with",
    "ssim_with_update",
]

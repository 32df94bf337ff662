"""Frame-sequence similarity metrics for the paper's similarity studies.

§4.1 defines two localities: *intra-player* similarity between each BE
frame and the next one along a player's trajectory (Fig. 1), and
*inter-player best-case* similarity — for each of Player 1's frames, the
maximum SSIM over all of Player 2's frames (Fig. 2).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .ssim import SSIM_GOOD, ssim


def adjacent_similarities(frames: Sequence[np.ndarray]) -> List[float]:
    """SSIM between each frame and its successor (intra-player locality)."""
    if len(frames) < 2:
        raise ValueError("need at least 2 frames")
    return [ssim(frames[i], frames[i + 1]) for i in range(len(frames) - 1)]


def best_case_similarities(
    frames_a: Sequence[np.ndarray],
    frames_b: Sequence[np.ndarray],
) -> List[float]:
    """For each frame of player A, the max SSIM over player B's frames.

    The paper calls this *best-case* inter-player similarity because it
    assumes a perfect oracle picks the most similar candidate.
    """
    if not frames_a or not frames_b:
        raise ValueError("both frame sequences must be non-empty")
    return [max(ssim(frame, other) for other in frames_b) for frame in frames_a]


def fraction_above(values: Sequence[float]) -> float:
    """Fraction of similarity values above the quality threshold.

    This is the paper's headline statistic: "the percentage of BE frames
    that exhibit an SSIM value larger than 0.90".
    """
    if not values:
        raise ValueError("values must be non-empty")
    return sum(1 for v in values if v > SSIM_GOOD) / len(values)


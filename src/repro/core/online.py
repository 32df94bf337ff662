"""Deferred SSIM scoring for the online systems.

:class:`SsimBatchQueue` serves the discrete-event clients
(:class:`repro.systems.policies.DisplayScorer`): SSIM jobs whose results
only feed *metrics* (never simulated timing) are queued during the
simulation and computed in stacked passes at flush points.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import perf
from ..similarity import ssim_pairs


class SsimBatchQueue:
    """Deferred SSIM jobs, computed in stacked tiled-kernel flushes.

    The discrete-event clients record SSIM-derived *metrics* (far-BE
    switch discontinuity, displayed-frame quality) whose values never
    influence simulated timing — so the pixel math is deferred: ``submit``
    queues ``(a, b, callback)`` and flushes compute all queued scores via
    :func:`repro.similarity.ssim_pairs`, grouped by frame shape, then
    dispatch callbacks in submission order.  Scores are bit-identical to
    inline ``ssim(a, b)`` calls; submitted arrays must not be mutated
    before the flush.
    """

    def __init__(self, batch_target: int = 16) -> None:
        if batch_target < 1:
            raise ValueError("batch_target must be >= 1")
        self.batch_target = batch_target
        self.jobs_total = 0
        self.flushes = 0
        # Set by the owning system to observe flushes (tracer instants).
        self.on_flush: Optional[Callable[[int], None]] = None
        self._jobs: List[
            Tuple[np.ndarray, np.ndarray, Callable[[float], None]]
        ] = []

    def __len__(self) -> int:
        return len(self._jobs)

    def submit(
        self,
        a: np.ndarray,
        b: np.ndarray,
        callback: Callable[[float], None],
    ) -> None:
        """Queue one SSIM job; flushes when the batch target fills."""
        self._jobs.append((a, b, callback))
        self.jobs_total += 1
        if len(self._jobs) >= self.batch_target:
            self.flush()

    def flush(self) -> None:
        """Compute all queued scores and dispatch their callbacks."""
        if not self._jobs:
            return
        jobs, self._jobs = self._jobs, []
        self.flushes += 1
        groups: Dict[tuple, List[int]] = {}
        for index, (a, _b, _cb) in enumerate(jobs):
            groups.setdefault(a.shape, []).append(index)
        scores: List[float] = [0.0] * len(jobs)
        for indices in groups.values():
            values = ssim_pairs([(jobs[i][0], jobs[i][1]) for i in indices])
            for i, value in zip(indices, values):
                scores[i] = float(value)
        perf.count("online.ssim_jobs", len(jobs))
        perf.count("online.ssim_flushes")
        if self.on_flush is not None:
            self.on_flush(len(jobs))
        for (_a, _b, callback), value in zip(jobs, scores):
            callback(value)

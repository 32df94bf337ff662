"""Deferred SSIM scoring for the online systems.

:class:`SsimBatchQueue` serves the discrete-event clients
(:class:`repro.systems.policies.DisplayScorer`): SSIM jobs whose results
only feed *metrics* (never simulated timing) are queued during the
simulation and scored at flush points, one pair at a time.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from .. import perf
from ..similarity import ssim_pairs


class SsimBatchQueue:
    """Deferred SSIM jobs, scored at flushes.

    The discrete-event clients record SSIM-derived *metrics* (far-BE
    switch discontinuity, displayed-frame quality) whose values never
    influence simulated timing — so the pixel math is deferred: ``submit``
    queues ``(a, b, callback)`` and a flush scores all queued pairs in
    submission order with :func:`repro.similarity.ssim_pairs` (which
    blurs only the rows where a pair's frames differ), then dispatches the
    callbacks in that order.  Scores are bit-identical to inline
    ``ssim(a, b)`` calls; submitted arrays must not be mutated before
    the flush.
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
        scores = ssim_pairs([(a, b) for a, b, _cb in jobs])
        perf.count("online.ssim_jobs", len(jobs))
        perf.count("online.ssim_flushes")
        if self.on_flush is not None:
            self.on_flush(len(jobs))
        for (_a, _b, callback), value in zip(jobs, scores):
            callback(float(value))

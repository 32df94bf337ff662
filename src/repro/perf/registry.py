"""Process-wide performance registry: scoped timers and counters.

Every hot stage of the offline pipeline (rasterization, encoding, SSIM,
dist-thresh search, preprocessing) reports into one module-level
:class:`PerfRegistry` so any entry point — the CLI, a benchmark, a test —
can ask "where did the time go" without threading profiler objects through
a dozen call signatures.  The registry is deliberately tiny: a timer is a
``perf_counter`` pair plus a dict update behind a lock (~1 µs per scope,
invisible next to a 300 ms panorama render).

:meth:`PerfRegistry.snapshot` is a plain-dict copy of everything recorded
so far; the end-to-end benchmark (``benchmarks/e2e``) reads it to refuse
measuring a process whose registry is not empty.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


@dataclass
class StageStats:
    """Accumulated timing for one named stage."""

    calls: int = 0
    total_s: float = 0.0
    min_s: float = math.inf
    max_s: float = 0.0

    def add(self, seconds: float) -> None:
        """Fold one measured call's duration in."""
        if seconds < 0:
            raise ValueError("invalid timing sample")
        self.calls += 1
        self.total_s += seconds
        self.min_s = min(self.min_s, seconds)
        self.max_s = max(self.max_s, seconds)

    @property
    def mean_ms(self) -> float:
        return 1000.0 * self.total_s / self.calls if self.calls else 0.0


@dataclass
class PerfRegistry:
    """Thread-safe collection of stage timings and event counters."""

    _stages: Dict[str, StageStats] = field(default_factory=dict)
    _counters: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    @contextmanager
    def timed(self, stage: str) -> Iterator[None]:
        """Time a ``with`` block (or, as a decorator context, a call)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(stage, time.perf_counter() - t0)

    def add_time(self, stage: str, seconds: float) -> None:
        """Record an externally measured duration for ``stage``."""
        with self._lock:
            stats = self._stages.get(stage)
            if stats is None:
                stats = self._stages[stage] = StageStats()
            stats.add(seconds)

    def count(self, name: str, n: int = 1) -> None:
        """Bump an event counter (cache hits, probes, renders, ...)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stage(self, name: str) -> Optional[StageStats]:
        """A copy of one stage's stats, or None if never recorded."""
        with self._lock:
            stats = self._stages.get(name)
            return (
                StageStats(stats.calls, stats.total_s, stats.min_s, stats.max_s)
                if stats is not None
                else None
            )

    def counter(self, name: str) -> int:
        """Current value of an event counter (0 if never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, dict]:
        """Plain-dict copy of every stage and counter recorded so far."""
        with self._lock:
            return {
                "stages": {
                    name: {
                        "calls": stats.calls,
                        "total_s": stats.total_s,
                        "min_s": stats.min_s,
                        "max_s": stats.max_s,
                    }
                    for name, stats in self._stages.items()
                },
                "counters": dict(self._counters),
            }

    def reset(self) -> None:
        """Clear all stages and counters (tests and benchmark legs)."""
        with self._lock:
            self._stages.clear()
            self._counters.clear()

    def report(self) -> str:
        """Human-readable profile table, slowest stages first."""
        with self._lock:
            rows = [
                (name, stats.calls, stats.total_s, stats.mean_ms)
                for name, stats in self._stages.items()
            ]
            counters = sorted(self._counters.items())
        rows.sort(key=lambda r: -r[2])
        # Name column sized to the longest name so long stage names do
        # not shear the numeric columns out of alignment.
        width = max(
            24,
            *(len(r[0]) for r in rows),
            *(len(name) for name, _ in counters),
        ) if rows or counters else 24
        lines = [f"{'stage':{width}} {'calls':>8} {'total s':>10} {'mean ms':>10}"]
        for name, calls, total_s, mean_ms in rows:
            lines.append(
                f"{name:{width}} {calls:>8} {total_s:>10.3f} {mean_ms:>10.3f}"
            )
        if counters:
            lines.append(f"{'counter':{width}} {'value':>8}")
            for name, value in counters:
                lines.append(f"{name:{width}} {value:>8}")
        return "\n".join(lines)

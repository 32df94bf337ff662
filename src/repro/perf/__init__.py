"""Lightweight performance instrumentation for the offline pipeline.

Usage from any module::

    from .. import perf   # or: from repro import perf

    with perf.timed("ssim"):
        ...

    perf.count("panorama.renders")
    print(perf.report())

All helpers operate on one process-wide :data:`REGISTRY`.
"""

from __future__ import annotations

from .registry import PerfRegistry, StageStats

# The process-wide registry every repro module reports into.
REGISTRY = PerfRegistry()

timed = REGISTRY.timed
add_time = REGISTRY.add_time
count = REGISTRY.count
counter = REGISTRY.counter
stage = REGISTRY.stage
snapshot = REGISTRY.snapshot
reset = REGISTRY.reset
report = REGISTRY.report

__all__ = [
    "PerfRegistry",
    "REGISTRY",
    "StageStats",
    "add_time",
    "count",
    "counter",
    "report",
    "reset",
    "snapshot",
    "stage",
    "timed",
]

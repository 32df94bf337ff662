"""Telemetry: per-frame metrics, CPU/power/thermal models, MOS scoring."""

from .collector import (
    TARGET_FRAME_MS,
    FrameRecord,
    MetricsCollector,
    ResilienceStats,
    SessionMetrics,
)
from .power import BATTERY_WH, PowerModel
from .qoe import (
    MOS_LABELS,
    UserStudyResult,
    mos_for_jump,
    run_user_study,
    trace_jumps,
)
from .stats import (
    histogram,
    mean,
    percentile,
    percentiles,
    tail_summary,
)
from .thermal import PIXEL2_THERMAL_LIMIT_C, ThermalModel
from .timeline import ResourceTimeline, TimelinePoint, build_timeline
from .utilization import CpuModel

__all__ = [
    "BATTERY_WH",
    "CpuModel",
    "FrameRecord",
    "MOS_LABELS",
    "MetricsCollector",
    "PIXEL2_THERMAL_LIMIT_C",
    "PowerModel",
    "ResilienceStats",
    "ResourceTimeline",
    "TimelinePoint",
    "SessionMetrics",
    "TARGET_FRAME_MS",
    "ThermalModel",
    "UserStudyResult",
    "histogram",
    "mean",
    "mos_for_jump",
    "percentile",
    "percentiles",
    "run_user_study",
    "build_timeline",
    "tail_summary",
    "trace_jumps",
]

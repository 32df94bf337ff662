"""Sim-time tracing and telemetry for the online simulation.

(Named ``telemetry`` to avoid colliding with :mod:`repro.trace`, the
player-trace package.)

Two sinks, each ``Optional`` wherever it is held — ``None`` is the only
"telemetry off" — one seam that feeds them, and the tools that read them:

* :mod:`~repro.telemetry.tracer` — span/instant/counter recording in
  simulated milliseconds (:class:`SpanTracer`);
* :mod:`~repro.telemetry.metrics` — counters/gauges/histograms sampled
  on a deterministic sim-time cadence into ring-buffered time series
  (:class:`MetricsHub`), with OpenMetrics text exposition and a
  schema-versioned JSONL series dump;
* :mod:`~repro.telemetry.observer` — :class:`SessionObserver`, the one
  object a session's frame loop reports to (``Session.observer``; built
  only when a tracer or hub is configured): one call per displayed frame
  meters the record and emits the ``frame``/stage/``wait`` spans;
* :mod:`~repro.telemetry.slo` — declarative service objectives with
  multi-window burn-rate alert evaluation over the sampled series;
* :mod:`~repro.telemetry.dashboard` — sparkline terminal dashboard over
  the live hub (``repro run --dashboard``);
* :mod:`~repro.telemetry.diff` — run-diff forensics across two series
  dumps (``repro report --diff A B``);
* :mod:`~repro.telemetry.export` / :mod:`~repro.telemetry.report` —
  Chrome trace-event JSON (written by ``repro run --trace``, read back
  by ``repro report``) and the per-frame critical-path attribution
  behind ``repro report``.
"""

from .dashboard import LiveDashboard, render_dashboard, sparkline
from .diff import (
    DEFAULT_DIFF_RULES,
    HIGH_BAD,
    INFO,
    LOW_BAD,
    DiffRow,
    DiffRule,
    diff_dumps,
    render_diff,
    rule_for,
)
from .export import (
    read_chrome_trace,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .metrics import (
    LATENCY_BUCKETS_MS,
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsDump,
    MetricsHub,
    read_metrics_jsonl,
    render_name,
    split_name,
    to_openmetrics,
    write_metrics_jsonl,
    write_openmetrics,
)
from .observer import SessionObserver
from .report import (
    FRAME_BUDGET_MS,
    FrameAttribution,
    FrameBudgetReport,
    StageRow,
    attribute_frame,
)
from .slo import (
    DEFAULT_BURN_RULES,
    BurnRule,
    SloAlert,
    SloEngine,
    SloResult,
    SloSpec,
    default_slos,
    emit_slo_instants,
)
from .tracer import (
    SESSION_TRACK,
    Span,
    SpanTracer,
)

__all__ = [
    "DEFAULT_BURN_RULES",
    "DEFAULT_DIFF_RULES",
    "FRAME_BUDGET_MS",
    "HIGH_BAD",
    "INFO",
    "LATENCY_BUCKETS_MS",
    "LOW_BAD",
    "METRICS_SCHEMA_VERSION",
    "BurnRule",
    "Counter",
    "DiffRow",
    "DiffRule",
    "FrameAttribution",
    "FrameBudgetReport",
    "Gauge",
    "Histogram",
    "LiveDashboard",
    "MetricsDump",
    "MetricsHub",
    "SESSION_TRACK",
    "SessionObserver",
    "SloAlert",
    "SloEngine",
    "SloResult",
    "SloSpec",
    "Span",
    "SpanTracer",
    "StageRow",
    "attribute_frame",
    "default_slos",
    "diff_dumps",
    "emit_slo_instants",
    "read_chrome_trace",
    "read_metrics_jsonl",
    "render_dashboard",
    "render_diff",
    "render_name",
    "rule_for",
    "sparkline",
    "split_name",
    "to_chrome_trace",
    "to_openmetrics",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics_jsonl",
    "write_openmetrics",
]

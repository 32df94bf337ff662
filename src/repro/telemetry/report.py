"""Frame-budget attribution: who spent each displayed frame's interval.

The paper's QoE argument is per-frame: Eq. 2 makes the display interval
the ``max`` of four concurrent tasks plus merging, and a frame misses the
16.7 ms budget exactly when one of those stages blows it.  Session means
cannot say *which* one; this module reconstructs it from a trace.

For each displayed frame (a ``frame`` span) the analyzer performs a
critical-path sweep over the frame's stage spans: every instant of the
interval is attributed to the overlapping stage span that *ends last* —
the one actually gating progress at that moment.  Concurrent stages
(render/decode/prefetch/sync all start at the interval's origin) thus
charge the interval to the slowest of them, the merge tail charges to
``merge``, and any uncovered remainder (the vsync wait of a pipeline
faster than 60 Hz) charges to ``wait``.  By construction the per-stage
attributions of a frame sum exactly to its interval, which doubles as a
self-check (:attr:`FrameAttribution.residual_ms`).

Outputs:

* a per-stage table of attributed time with p50/p95/p99 over frames;
* a deadline-miss breakdown: for every frame that blew the budget, which
  stage dominated it and under which fault episode it happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .tracer import KIND_SPAN, Span

# Stages whose spans participate in the critical-path sweep; the frame
# span itself and point lanes (net/cache) are containers, not stages.
NON_STAGE_LANES = ("frame", "net", "cache", "link", "sim")

# 60 Hz display budget the miss breakdown is measured against.
FRAME_BUDGET_MS = 1000.0 / 60.0

# Tolerance used by sum self-checks: attribution is exact up to float
# rounding, so anything beyond this indicates a malformed trace.
SUM_TOLERANCE = 1e-6


@dataclass
class FrameAttribution:
    """One displayed frame's interval, split over its stages."""

    player: int
    frame: int
    t0_ms: float
    interval_ms: float
    by_stage: Dict[str, float]
    critical_stage: str
    deadline_missed: bool = False
    fault: str = ""
    cache: Optional[str] = None

    @property
    def attributed_ms(self) -> float:
        return sum(self.by_stage.values())

    @property
    def residual_ms(self) -> float:
        """Interval time the sweep failed to attribute (should be ~0)."""
        return self.interval_ms - self.attributed_ms

    @property
    def over_budget(self) -> bool:
        return self.interval_ms > FRAME_BUDGET_MS + SUM_TOLERANCE


def attribute_frame(
    frame_span: Span, stage_spans: Sequence[Span]
) -> Dict[str, float]:
    """Critical-path sweep: split a frame's interval over its stages.

    Boundaries are the clipped stage endpoints; each elementary segment
    is charged to the covering span with the latest end time (ties break
    by lane name for determinism), uncovered segments to ``wait``.
    """
    t0 = frame_span.start_ms
    t1 = frame_span.end_ms
    clipped: List[Tuple[float, float, str]] = []
    for span in stage_spans:
        lo = max(t0, span.start_ms)
        hi = min(t1, span.end_ms)
        if hi > lo:
            clipped.append((lo, hi, span.lane))
    cuts = sorted({t0, t1, *(c[0] for c in clipped), *(c[1] for c in clipped)})
    out: Dict[str, float] = {}
    for lo, hi in zip(cuts, cuts[1:]):
        covering = [c for c in clipped if c[0] <= lo and c[1] >= hi]
        if covering:
            # The span ending last is the one gating progress here.
            lane = max(covering, key=lambda c: (c[1], c[2]))[2]
        else:
            lane = "wait"
        out[lane] = out.get(lane, 0.0) + (hi - lo)
    return out


def _critical(by_stage: Dict[str, float]) -> str:
    """The stage that dominated a frame (``wait`` only if nothing else)."""
    busy = {k: v for k, v in by_stage.items() if k != "wait"}
    pool = busy or by_stage
    if not pool:
        return "wait"
    return max(sorted(pool), key=lambda k: pool[k])


@dataclass
class StageRow:
    """One stage's line of the report table."""

    stage: str
    frames: int
    total_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    share: float  # fraction of all attributed time


@dataclass
class FrameBudgetReport:
    """Aggregated frame-budget attribution for one traced run."""

    frames: List[FrameAttribution] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence[Span]) -> "FrameBudgetReport":
        """Build from a record stream (tracer contents or a read-back trace)."""
        spans = [r for r in records if r.kind == KIND_SPAN]
        frame_spans = [s for s in spans if s.lane == "frame" and s.name == "frame"]
        stage_by_key: Dict[Tuple[int, int], List[Span]] = {}
        for span in spans:
            if span.lane in NON_STAGE_LANES:
                continue
            frame = span.arg("frame")
            if frame is None:
                continue
            stage_by_key.setdefault((span.player, int(frame)), []).append(span)
        frames: List[FrameAttribution] = []
        for fs in frame_spans:
            frame = fs.arg("frame")
            if frame is None:
                continue
            key = (fs.player, int(frame))
            by_stage = attribute_frame(fs, stage_by_key.get(key, ()))
            frames.append(
                FrameAttribution(
                    player=fs.player,
                    frame=int(frame),
                    t0_ms=fs.start_ms,
                    interval_ms=fs.dur_ms,
                    by_stage=by_stage,
                    critical_stage=_critical(by_stage),
                    deadline_missed=bool(fs.arg("deadline_missed", False)),
                    fault=str(fs.arg("fault", "") or ""),
                    cache=fs.arg("cache"),
                )
            )
        frames.sort(key=lambda f: (f.player, f.frame))
        return cls(frames=frames)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def players(self) -> List[int]:
        """Player ids that contributed frames, ascending."""
        return sorted({f.player for f in self.frames})

    def max_residual_ms(self) -> float:
        """Worst per-frame attribution error (self-check; ~0 by design)."""
        if not self.frames:
            return 0.0
        return max(abs(f.residual_ms) for f in self.frames)

    def stage_table(self) -> List[StageRow]:
        """Per-stage attributed time with p50/p95/p99 over the frames that
        spent time in the stage beyond float rounding (``SUM_TOLERANCE``),
        sorted by total attributed time."""
        from ..metrics.stats import percentile

        samples: Dict[str, List[float]] = {}
        for f in self.frames:
            for stage, ms in f.by_stage.items():
                if ms > SUM_TOLERANCE:
                    samples.setdefault(stage, []).append(ms)
        grand_total = sum(sum(v) for v in samples.values()) or 1.0
        rows = [
            StageRow(
                stage=stage,
                frames=len(values),
                total_ms=sum(values),
                p50_ms=percentile(values, 50.0),
                p95_ms=percentile(values, 95.0),
                p99_ms=percentile(values, 99.0),
                share=sum(values) / grand_total,
            )
            for stage, values in samples.items()
        ]
        rows.sort(key=lambda r: -r.total_ms)
        return rows

    def miss_breakdown(self) -> List[Tuple[str, str, int]]:
        """(critical stage, fault episode, count) over budget-miss frames.

        A frame counts as a miss when its interval exceeded the 16.7 ms
        budget *or* its prefetch missed the per-frame deadline (a stale
        fallback keeps the interval at cadence while still degrading).
        """
        counts: Dict[Tuple[str, str], int] = {}
        for f in self.frames:
            if not (f.over_budget or f.deadline_missed):
                continue
            key = (f.critical_stage, f.fault or "none")
            counts[key] = counts.get(key, 0) + 1
        return sorted(
            ((stage, fault, n) for (stage, fault), n in counts.items()),
            key=lambda row: (-row[2], row[0], row[1]),
        )

    def miss_count(self) -> int:
        """Frames that blew the budget or missed their prefetch deadline."""
        return sum(1 for f in self.frames if f.over_budget or f.deadline_missed)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self) -> str:
        """The human-readable report ``repro report`` prints."""
        if not self.frames:
            return "no frame spans in trace (was the run traced?)"
        lines: List[str] = []
        players = self.players()
        lines.append(
            f"frame-budget attribution: {len(self.frames)} frames, "
            f"{len(players)} player(s), "
            f"max attribution residual {self.max_residual_ms():.2e} ms"
        )
        rows = self.stage_table()
        width = max(5, *(len(r.stage) for r in rows))
        lines.append(
            f"  {'stage':{width}} {'frames':>7} {'total ms':>10} "
            f"{'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8} {'share':>7}"
        )
        for r in rows:
            lines.append(
                f"  {r.stage:{width}} {r.frames:>7} {r.total_ms:>10.1f} "
                f"{r.p50_ms:>8.2f} {r.p95_ms:>8.2f} {r.p99_ms:>8.2f} "
                f"{100 * r.share:>6.1f}%"
            )
        misses = self.miss_breakdown()
        lines.append(
            f"  deadline/budget misses: {self.miss_count()} "
            f"of {len(self.frames)} frames"
        )
        if misses:
            stage_w = max(5, *(len(s) for s, _, _ in misses))
            fault_w = max(5, *(len(f) for _, f, _ in misses))
            lines.append(
                f"  {'stage':{stage_w}} {'fault':{fault_w}} {'frames':>7}"
            )
            for stage, fault, n in misses:
                lines.append(f"  {stage:{stage_w}} {fault:{fault_w}} {n:>7}")
        return "\n".join(lines)

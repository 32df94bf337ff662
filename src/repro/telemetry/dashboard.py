"""Live terminal dashboard over a :class:`MetricsHub`'s series.

Unicode sparklines (the ``benchmarks/ascii_plot.py`` family of helpers —
that module re-exports :func:`sparkline` for bench scripts) plus an SLO
status footer.  The live view hooks the hub's ``on_sample`` callback, so
it refreshes on *sim-time* boundaries but throttles redraws by wall
clock; rendering reads series state only and never feeds anything back
into the simulation, keeping dashboarded runs bit-identical to plain
metered runs.
"""

from __future__ import annotations

import sys
import time
from typing import IO, List, Optional, Sequence

#: Eight-level block ramp, lowest to highest.
SPARK_LEVELS = "▁▂▃▄▅▆▇█"

#: Clear screen + cursor home (ANSI); used only on TTY streams.
_ANSI_HOME = "\x1b[H\x1b[2J"

#: Sparkline width and the most series one frame lists.
_WIDTH = 32
_MAX_ROWS = 24

#: Least wall time between two live redraws, in seconds.
_MIN_INTERVAL_S = 0.25


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """Render the last ``width`` values as a unicode block sparkline.

    Values are min-max normalized over the rendered window; a flat
    series renders at the lowest level.  Empty input renders empty.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    window = list(values)[-width:]
    if not window:
        return ""
    lo = min(window)
    hi = max(window)
    span = hi - lo
    if span <= 0:
        return SPARK_LEVELS[0] * len(window)
    top = len(SPARK_LEVELS) - 1
    return "".join(
        SPARK_LEVELS[min(top, int((v - lo) / span * len(SPARK_LEVELS)))]
        for v in window
    )


def _fmt_value(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def render_dashboard(hub, slo_results: Optional[Sequence] = None) -> str:
    """One dashboard frame: per-series sparklines plus SLO status lines."""
    lines: List[str] = []
    names = sorted(hub.series)
    shown = names[:_MAX_ROWS]
    for name in shown:
        ring = hub.series[name]
        values = [v for _, v in ring]
        last = values[-1] if values else 0.0
        lines.append(
            f"{name:<44.44} {sparkline(values, _WIDTH):<{_WIDTH}} "
            f"{_fmt_value(last):>10}"
        )
    if len(names) > len(shown):
        lines.append(f"... +{len(names) - len(shown)} more series")
    if slo_results:
        lines.append("-" * (44 + _WIDTH + 12))
        for result in slo_results:
            spec = result.spec
            if result.attainment is None:
                status = "n/a"
            else:
                status = f"{100.0 * result.attainment:5.1f} %"
            alert = f"  ALERT x{len(result.alerts)}" if result.alerts else ""
            lines.append(
                f"slo {spec.name:<24.24} {status:>8}  "
                f"worst burn {result.worst_burn:6.1f}x{alert}"
            )
    return "\n".join(lines)


class LiveDashboard:
    """Streams dashboard frames to a terminal while a run progresses.

    Attach with :meth:`attach` before the run; each hub sample boundary
    triggers a redraw to standard output, throttled to a quarter second
    of *wall* time so fast sims do not spam the terminal.  ``final()``
    always renders one last frame (with SLO results, when an engine is
    provided).
    """

    def __init__(self, hub, engine=None) -> None:
        self.hub = hub
        self.engine = engine
        self.stream: IO[str] = sys.stdout
        isatty = getattr(self.stream, "isatty", None)
        self.ansi = bool(isatty()) if callable(isatty) else False
        self._last_draw = float("-inf")
        self.frames_drawn = 0

    def attach(self) -> None:
        """Hook the hub's sample callback (call before the run starts)."""
        self.hub.on_sample = self._on_sample

    def _on_sample(self, t_ms: float) -> None:
        now = time.monotonic()
        if now - self._last_draw < _MIN_INTERVAL_S:
            return
        self._last_draw = now
        self._draw(t_ms, slo_results=None)

    def _draw(self, t_ms: float, slo_results) -> None:
        frame = render_dashboard(self.hub, slo_results=slo_results)
        header = f"sim t={t_ms:.0f} ms  series={len(self.hub.series)}"
        if self.ansi:
            self.stream.write(_ANSI_HOME)
        self.stream.write(header + "\n" + frame + "\n")
        self.stream.flush()
        self.frames_drawn += 1

    def final(self, t_ms: float):
        """Render the closing frame (never throttled)."""
        slo_results = None
        if self.engine is not None:
            slo_results = self.engine.evaluate(self.hub.series)
        self._draw(t_ms, slo_results)
        return slo_results

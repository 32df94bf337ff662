"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark module regenerates one table or figure from the paper's
evaluation.  The harness provides:

* ``PAPER`` — the published reference numbers, so each report prints
  paper-vs-measured side by side;
* ``table(...)`` — the formatted table text; ``report(...)`` prints it
  and persists it under ``benchmarks/results/`` for EXPERIMENTS.md (the
  paper tables and figures);
* ``once(benchmark, fn)`` — run an experiment exactly once under
  pytest-benchmark (these are minutes-long system simulations, not
  microbenchmarks);
* ``write_bench(name, payload)`` — the single path for machine-readable
  ``BENCH_*.json`` artifacts: everything lands in ``benchmarks/results/``
  (never the repo root), which is the directory CI uploads and the
  perf-regression gate reads.  A gated bench writes that one file and
  only prints its table;
* ``gated_bench(...)`` — the ``main(argv)`` / ``--smoke`` / PASS-FAIL
  printout and the pytest-benchmark case every gated bench shares.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

try:
    import pytest
except ImportError:  # standalone run without pytest installed
    pytest = None

RESULTS_DIR = Path(__file__).parent / "results"

# Wall-clock origin for per-result cost reporting (module import ~ run start).
_RUN_START = time.monotonic()


def run_cost() -> Dict[str, float]:
    """Reproduction cost so far: wall-clock seconds and peak RSS (MB).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both are
    normalised to megabytes.
    """
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1e6 if sys.platform == "darwin" else 1e3
    return {
        "wall_s": round(time.monotonic() - _RUN_START, 3),
        "peak_rss_mb": round(maxrss / divisor, 1),
    }

# ----------------------------------------------------------------------
# Published reference numbers (the paper's tables)
# ----------------------------------------------------------------------

PAPER = {
    # Table 1: (FPS, inter-frame ms, net delay ms) per (system, game, players)
    "table1": {
        ("mobile", "viking", 1): (26, 38.2, None),
        ("mobile", "cts", 1): (24, 42.0, None),
        ("mobile", "racing", 1): (27, 38.2, None),
        ("mobile", "viking", 2): (24, 42.5, None),
        ("mobile", "cts", 2): (21, 48.3, None),
        ("mobile", "racing", 2): (25, 40.3, None),
        ("thin_client", "viking", 1): (24, 41.1, 9.7),
        ("thin_client", "cts", 1): (20, 50.3, 9.9),
        ("thin_client", "racing", 1): (20, 50.0, 11.3),
        ("thin_client", "viking", 2): (19, 52.2, 19.8),
        ("thin_client", "cts", 2): (16, 59.0, 20.1),
        ("thin_client", "racing", 2): (15, 64.1, 21.2),
        ("multi_furion", "viking", 1): (60, 16.0, 9.2),
        ("multi_furion", "cts", 1): (60, 16.6, 7.5),
        ("multi_furion", "racing", 1): (60, 16.5, 9.3),
        ("multi_furion", "viking", 2): (45, 22.2, 18.3),
        ("multi_furion", "cts", 2): (48, 20.8, 16.2),
        ("multi_furion", "racing", 2): (42, 23.8, 18.5),
    },
    # Table 3: (leaf regions, avg depth, max depth, proc hours)
    "table3": {
        "viking": (2944, 5.87, 6, 6.60),
        "cts": (235, 3.81, 4, 1.30),
        "racing": (136, 3.70, 4, 1.25),
        "ds": (160, 3.80, 4, 1.66),
        "fps": (208, 3.92, 4, 1.10),
        "soccer": (136, 3.88, 4, 1.18),
        "pool": (19, 2.68, 3, 0.14),
        "bowling": (16, 2.00, 2, 0.13),
        "corridor": (40, 2.80, 3, 0.29),
    },
    # Table 5: Viking cache hit ratios per version x players (%).
    "table5": {
        (1, 1): 0.0, (1, 2): 0.0, (1, 3): 0.0, (1, 4): 0.0,
        (2, 1): 0.0, (2, 2): 0.0, (2, 3): 0.0, (2, 4): 0.0,
        (3, 1): 80.8, (3, 2): 80.8, (3, 3): 80.8, (3, 4): 80.8,
        (4, 1): 0.0, (4, 2): 63.9, (4, 3): 67.2, (4, 4): 65.4,
        (5, 1): 80.8, (5, 2): 80.4, (5, 3): 80.4, (5, 4): 87.7,
    },
    # Table 6: average cache hit ratios (%).
    "table6": {"viking": 80.8, "racing": 82.3, "cts": 88.4},
    # Table 7: (SSIM, FPS, responsiveness ms) per (system, game), 2 players.
    "table7": {
        ("thin_client", "viking"): (0.912, 19, 41.0),
        ("thin_client", "cts"): (0.904, 16, 50.0),
        ("thin_client", "racing"): (0.949, 15, 42.2),
        ("multi_furion", "viking"): (0.915, 45, 22.0),
        ("multi_furion", "cts"): (0.907, 48, 20.1),
        ("multi_furion", "racing"): (0.953, 42, 21.2),
        ("coterie", "viking"): (0.937, 60, 15.8),
        ("coterie", "cts"): (0.979, 60, 15.9),
        ("coterie", "racing"): (0.975, 60, 15.6),
    },
    # Table 8: Coterie detail: (FPS, inter ms, CPU %, GPU %, frame kB, net ms)
    "table8": {
        ("viking", 1): (60, 16.0, 31.76, 55.51, 280, 7.0),
        ("cts", 1): (60, 16.6, 27.76, 44.81, 150, 6.0),
        ("racing", 1): (60, 16.0, 26.99, 39.18, 194, 6.5),
        ("viking", 2): (60, 16.5, 31.89, 57.24, 280, 8.9),
        ("cts", 2): (60, 16.6, 28.13, 46.89, 150, 6.3),
        ("racing", 2): (60, 16.2, 28.98, 43.25, 194, 7.5),
    },
    # Table 9: BE Mbps / FI Kbps: Multi-Furion 1P and Coterie 1-4P.
    "table9": {
        "viking": {"furion_1p": (276, 1), "coterie": {1: (26, 1), 2: (52, 71), 3: (76, 153), 4: (100, 266)}},
        "cts": {"furion_1p": (264, 1), "coterie": {1: (14, 1), 2: (27, 68), 3: (42, 151), 4: (56, 260)}},
        "racing": {"furion_1p": (283, 1), "coterie": {1: (11, 1), 2: (22, 52), 3: (34, 129), 4: (42, 275)}},
    },
    # Table 10: user-study score distribution (%).
    "table10": {1: 0.0, 2: 0.0, 3: 5.5, 4: 29.2, 5: 65.3},
    # Figure 1: fraction of adjacent frame pairs with SSIM > 0.9.
    "fig1_before": (0.0, 0.20),   # range across the 9 games
    "fig1_after_outdoor": (0.85, 1.0),
    "fig1_after_indoor": (0.65, 0.90),
    # Figure 11: FPS vs players (viking, multi-furion vs coterie).
    "fig11_furion_4p_max": 30,
    "fig11_coterie_4p_min": 55,
}


def write_bench(name: str, payload: Dict) -> Path:
    """Persist one machine-readable benchmark artifact.

    ``name`` is the bare artifact name (e.g. ``BENCH_fleet.json``); the
    file is written under :data:`RESULTS_DIR` only — the repo root stays
    clean, and both CI artifact uploads and ``check_regression.py`` agree
    on this one location.  Returns the written path.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / name
    target.write_text(json.dumps(payload, indent=1, default=str))
    return target


def once(benchmark, fn: Callable, *args, **kwargs):
    """Run a (long) experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def gated_bench(run: Callable, acceptance: Callable, record: Callable,
                group: str, smoke: bool = True):
    """The two entry points of a bench whose verdict is a dict of named gates.

    ``run`` measures (called with ``smoke=`` unless the bench has no
    smoke mode), ``acceptance(m)`` names the boolean gates and
    ``record(m, checks)`` writes the artifact.  Returns ``(main, test)``:
    ``main(argv)`` prints one PASS/FAIL line per gate and returns 0 only
    when all hold; ``test`` asserts the same once under pytest-benchmark
    (``None`` without pytest) — bind it to the module's ``test_*`` name.
    """
    def main(argv=None) -> int:
        argv = sys.argv[1:] if argv is None else argv
        m = run(smoke="--smoke" in argv) if smoke else run()
        checks = acceptance(m)
        record(m, checks)
        print()
        width = max(map(len, checks))
        for name, ok in checks.items():
            print(f"  {name:{width}}: {'PASS' if ok else 'FAIL'}")
        return 0 if all(checks.values()) else 1

    if pytest is None:
        return main, None

    @pytest.mark.benchmark(group=group)
    def test(benchmark):
        m = once(benchmark, run)
        checks = acceptance(m)
        record(m, checks)
        assert all(checks.values()), checks

    return main, test


def table(name: str, header: Sequence[str], rows: List[Sequence], notes: str = "") -> str:
    """Format a titled, column-aligned table (no I/O)."""
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    lines = []
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    text = f"== {name} ==\n" + "\n".join(lines)
    if notes:
        text += f"\n{notes}"
    return text


def report(name: str, header: Sequence[str], rows: List[Sequence], notes: str = "") -> None:
    """Print a table and persist it for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = table(name, header, rows, notes)
    print("\n" + text)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    payload = {"name": name, "header": list(header), "rows": [list(r) for r in rows], "notes": notes, "cost": run_cost()}
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(payload, indent=1, default=str))


def fmt(value, digits=1):
    """Compact numeric formatting for table cells."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)

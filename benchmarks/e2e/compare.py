"""Compare two result files of ``run.py --out``: base A against new B.

    python benchmarks/e2e/compare.py A.json B.json

Prints one row per workload and end-to-end metric: base, new, the ratio
new/base, the bound and a verdict.  Both files must come from the same
seed, scale and workload set, so simulated metrics compare exactly and
host-time metrics compare like for like:

* a simulated metric (``sim_*``, ``fleet_*``, ``baseline_sim_fps``) is
  ``ok`` when equal to 1e-9 or moved in its better direction, otherwise
  ``regressed`` -- a change meant only to speed the simulator up must
  leave every one of them identical;
* a host-time metric is ``regressed`` when the median of B's repetitions
  is worse than A's by more than 10 % (``setup_s``: by more than
  max(10 %, 0.15 s)); when the quartile spread of either side's
  repetitions is wider than that bound the verdict is ``unresolved``
  instead, unless every repetition of B beats every repetition of A.

Exits 1 on any ``regressed``, 2 on inputs that cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Tuple

import spec

METRICS: Dict[str, spec.Metric] = {m.name: m for m in spec.END_TO_END}


def spread(samples: List[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one sample)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(metric: spec.Metric, base: List[float], new: List[float]) -> Tuple[str, float]:
    """(``ok`` | ``regressed`` | ``unresolved``, the relative bound used)."""
    a, b = statistics.median(base), statistics.median(new)
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b - a)
    if metric.clock == "sim":
        return ("regressed" if worse_by > spec.SIM_TOLERANCE else "ok"), 0.0
    bound = spec.HOST_BOUND
    if metric.name == "setup_s" and a > 0:
        bound = max(bound, spec.SETUP_ABS_S / a)
    if max(spread(base), spread(new)) > bound:
        all_better = max(sign * x for x in new) < min(sign * x for x in base)
        return ("ok" if all_better else "unresolved"), bound
    return ("regressed" if worse_by > bound * abs(a) else "ok"), bound


def refusal(a: dict, b: dict) -> Optional[str]:
    """Why the two result files cannot be compared, if they cannot."""
    for key in ("seed", "scale"):
        if a["environment"][key] != b["environment"][key]:
            return (f"{key} differs: {a['environment'][key]!r} vs "
                    f"{b['environment'][key]!r}")
    if set(a["workloads"]) != set(b["workloads"]):
        return (f"workload sets differ: {sorted(a['workloads'])} vs "
                f"{sorted(b['workloads'])}")
    return None


def compare(a: dict, b: dict) -> List[Tuple[str, str, float, float, float, str]]:
    """Rows of (workload, metric, base, new, bound, verdict)."""
    rows = []
    for workload, base in a["workloads"].items():
        new = b["workloads"][workload]
        for name, entry in base["end_to_end"].items():
            if name not in new["end_to_end"]:
                rows.append((workload, name, entry["value"], float("nan"), 0.0, "regressed"))
                continue
            samples = new["end_to_end"][name]["samples"]
            outcome, bound = verdict(METRICS[name], entry["samples"], samples)
            rows.append((workload, name, entry["value"],
                         new["end_to_end"][name]["value"], bound, outcome))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    a, b = documents
    why = refusal(a, b)
    if why is not None:
        print(f"compare.py: refusing to compare: {why}", file=sys.stderr)
        return 2
    rows = compare(a, b)
    print(f"{'workload':<16} {'metric':<30} {'base':>14} {'new':>14} "
          f"{'new/base':>9} {'bound':>7}  verdict")
    for workload, name, base, new, bound, outcome in rows:
        ratio = new / base if base else float("nan")
        shown = "exact" if METRICS[name].clock == "sim" else f"{bound:.1%}"
        print(f"{workload:<16} {name:<30} {base:>14.6f} {new:>14.6f} "
              f"{ratio:>9.4f} {shown:>7}  {outcome}")
    counts = {v: sum(1 for row in rows if row[5] == v)
              for v in ("ok", "regressed", "unresolved")}
    print(f"{counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved "
          f"(seed {a['environment']['seed']}, scale {a['environment']['scale']})")
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())

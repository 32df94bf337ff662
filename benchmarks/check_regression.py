"""CI perf-regression gate over the ``BENCH_*.json`` artifacts.

Compares a fresh benchmark run against committed baselines and exits
nonzero when a watched metric regresses beyond tolerance.  Three metric
kinds cover the artifacts' shapes:

* ``wall`` — lower is better, multiplicative: fresh > base * (1 + tol)
  fails.  Wall clocks are noisy across runner generations, so
  ``--ratio-only`` skips this kind entirely (CI compares machine-relative
  ratios only; absolute walls are still reported for humans);
* ``ratio_high`` — higher is better, multiplicative: a speedup ratio
  falling below base * (1 - tol) fails even under ``--ratio-only``
  (both legs ran on the same machine, so the ratio is noise-immune);
* ``abs_low`` — lower is better, additive: fresh > base + tol fails
  (for small fractions like a deadline-miss rate where a multiplicative
  band around ~0 is meaningless).

Observer overhead is not here: ``bench_overhead.py`` judges it in-process
against the noise floor of the same run, which a cross-machine baseline
cannot do.

Usage (the CI perf job)::

    python benchmarks/check_regression.py \
        --baseline-dir benchmarks/results/smoke \
        --fresh-dir benchmarks/results --ratio-only --tolerance 0.35

Baselines are re-pinned by re-running the benches on a quiet machine and
committing the refreshed artifacts::

    python benchmarks/check_regression.py \
        --update-baselines \
        --baseline-dir benchmarks/results/smoke \
        --fresh-dir benchmarks/results

``--update-baselines`` copies every spec'd fresh artifact (validated as
JSON first) over the baseline directory instead of comparing, then
reports what changed; commit the result (see README "Performance gate").
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional

#: Watched metrics per artifact: (dotted path into the JSON, kind).
#: Paths missing from BOTH baseline and fresh artifacts are skipped
#: (bench payloads grow fields over time); present-on-one-side-only is
#: a failure — a silently vanished metric must not pass the gate.
SPECS = {
    "BENCH_preprocess.json": [
        ("speedup.cached", "ratio_high"),
        ("speedup.warm", "ratio_high"),
        ("legs.serial.wall_s", "wall"),
        ("legs.cached.wall_s", "wall"),
        ("legs.warm.wall_s", "wall"),
    ],
    # Speculation must keep improving the hit ratio on most trajectory
    # genres (the deterministic genre count is noise-immune), and the
    # desync validator must never false-alarm on a clean run.
    "BENCH_prediction.json": [
        ("improvement.genres_improved", "ratio_high"),
        ("clean.desync_alarms", "abs_low"),
    ],
    # Deadline-miss rates are fractions in [0, 1]; the additive abs_low
    # band keeps adaptive Coterie from quietly sliding back toward the
    # fixed-CRF miss rates under any committed trace.
    "BENCH_adaptive.json": [
        ("traces.cellular.adaptive.deadline_miss_rate", "abs_low"),
        ("traces.bufferbloat.adaptive.deadline_miss_rate", "abs_low"),
        ("traces.contention.adaptive.deadline_miss_rate", "abs_low"),
    ],
    # Shared serving must keep beating isolated serving on sessions/sec
    # at the same GPU budget, and dedup must stay effective.  Join p99s
    # and both identity pins are sim-time deterministic, so the additive
    # abs_low band amounts to an exact hold.
    "BENCH_fleet.json": [
        ("comparison.sessions_per_s_ratio", "ratio_high"),
        ("comparison.dedup_hit_ratio", "ratio_high"),
        ("workloads.poisson.join_p99_ms", "abs_low"),
        ("workloads.diurnal.join_p99_ms", "abs_low"),
        ("workloads.flash.join_p99_ms", "abs_low"),
        ("identity.mismatches", "abs_low"),
        ("determinism.mismatches", "abs_low"),
    ],
}


@dataclass(frozen=True)
class Comparison:
    """One metric's verdict: the values compared and whether it regressed."""

    artifact: str
    metric: str
    kind: str
    baseline: Optional[float]
    fresh: Optional[float]
    regressed: bool
    skipped: bool = False

    def line(self) -> str:
        """One human-readable report row."""
        def show(v):
            return "-" if v is None else f"{v:.3f}"

        if self.skipped:
            verdict = "SKIP"
        else:
            verdict = "FAIL" if self.regressed else "ok"
        return (f"  {self.artifact:24} {self.metric:28} {self.kind:10} "
                f"base {show(self.baseline):>8}  fresh {show(self.fresh):>8}"
                f"  {verdict}")


def lookup(document, path: str) -> Optional[float]:
    """Resolve a dotted path to a float, or None when any key is absent."""
    node = document
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    try:
        return float(node)
    except (TypeError, ValueError):
        return None


def compare_metric(
    artifact: str,
    metric: str,
    kind: str,
    baseline: Optional[float],
    fresh: Optional[float],
    tolerance: float,
    ratio_only: bool,
) -> Comparison:
    """Judge one metric against its baseline."""
    if baseline is None and fresh is None:
        return Comparison(artifact, metric, kind, None, None, False, skipped=True)
    if baseline is None or fresh is None:
        # A metric that vanished (or appeared without a baseline) is a
        # gate failure: silence must never read as "no regression".
        return Comparison(artifact, metric, kind, baseline, fresh, True)
    if kind == "wall":
        if ratio_only:
            return Comparison(
                artifact, metric, kind, baseline, fresh, False, skipped=True
            )
        regressed = fresh > baseline * (1.0 + tolerance)
    elif kind == "ratio_high":
        regressed = fresh < baseline * (1.0 - tolerance)
    elif kind == "abs_low":
        regressed = fresh > baseline + tolerance
    else:
        raise ValueError(f"unknown metric kind {kind!r}")
    return Comparison(artifact, metric, kind, baseline, fresh, regressed)


def compare_dirs(
    baseline_dir: Path,
    fresh_dir: Path,
    tolerance: float,
    ratio_only: bool,
    artifacts: Optional[Iterable[str]] = None,
) -> List[Comparison]:
    """Compare every watched artifact present in the baseline directory.

    ``artifacts`` narrows the set (CI only runs a subset of benches); by
    default every SPECS artifact with a committed baseline is checked.
    A baseline artifact whose fresh counterpart is missing fails the
    gate outright — the bench silently not running is itself a
    regression.
    """
    names = list(artifacts) if artifacts is not None else sorted(SPECS)
    results: List[Comparison] = []
    for name in names:
        if name not in SPECS:
            raise ValueError(f"no metric spec for {name!r}")
        base_path = baseline_dir / name
        fresh_path = fresh_dir / name
        if not base_path.exists():
            if artifacts is None:
                continue  # no baseline committed: nothing to hold against
            results.append(
                Comparison(name, "<baseline file>", "-", None, None, True)
            )
            continue
        if not fresh_path.exists():
            results.append(
                Comparison(name, "<fresh file>", "-", None, None, True)
            )
            continue
        try:
            base_doc = json.loads(base_path.read_text())
            fresh_doc = json.loads(fresh_path.read_text())
        except json.JSONDecodeError:
            # One corrupt artifact must fail the gate without hiding the
            # other artifacts' comparisons: emit a failing row, move on.
            results.append(
                Comparison(name, "<parse error>", "-", None, None, True)
            )
            continue
        for metric, kind in SPECS[name]:
            results.append(compare_metric(
                name, metric, kind,
                lookup(base_doc, metric), lookup(fresh_doc, metric),
                tolerance, ratio_only,
            ))
    return results


def _is_bench_artifact(name: str) -> bool:
    """Whether ``name`` follows the BENCH_*.json artifact convention."""
    return name.startswith("BENCH_") and name.endswith(".json")


def update_baselines(
    baseline_dir: Path,
    fresh_dir: Path,
    artifacts: Optional[Iterable[str]] = None,
) -> List[str]:
    """Re-pin committed baselines from a fresh bench run.

    Copies each artifact present in ``fresh_dir`` over ``baseline_dir``
    (created if needed), validating that the fresh file parses as JSON
    first — a half-written artifact must never become the new baseline.
    Returns the artifact names that were updated.

    Unlike :func:`compare_dirs`, this accepts artifacts without a SPECS
    entry as long as they follow the ``BENCH_*.json`` convention: when a
    benchmark is first introduced its baseline must be pinnable before
    (or in the same change as) its spec lands.  By default every spec'd
    artifact plus every ``BENCH_*.json`` file in ``fresh_dir`` is
    considered.
    """
    if artifacts is not None:
        names = list(artifacts)
    else:
        fresh_names = {
            p.name for p in fresh_dir.glob("BENCH_*.json")
        } if fresh_dir.is_dir() else set()
        names = sorted(set(SPECS) | fresh_names)
    updated: List[str] = []
    baseline_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        if name not in SPECS and not _is_bench_artifact(name):
            raise ValueError(
                f"no metric spec for {name!r} and it does not follow "
                "the BENCH_*.json naming convention"
            )
        fresh_path = fresh_dir / name
        if not fresh_path.exists():
            continue
        text = fresh_path.read_text()
        try:
            json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fresh artifact {fresh_path} is not valid "
                             f"JSON: {exc}") from exc
        (baseline_dir / name).write_text(text)
        updated.append(name)
    return updated


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns 0 (clean), 1 (regression), 2 (usage)."""
    parser = argparse.ArgumentParser(
        description="fail when fresh BENCH_*.json artifacts regress "
        "against committed baselines"
    )
    parser.add_argument("--baseline-dir", type=Path,
                        default=Path(__file__).parent / "results",
                        help="directory of committed baseline artifacts")
    parser.add_argument("--fresh-dir", type=Path,
                        default=Path(__file__).parent / "results",
                        help="directory the fresh bench run wrote to")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative (or additive, for abs_low) "
                             "slack before a metric counts as regressed")
    parser.add_argument("--ratio-only", action="store_true",
                        help="skip absolute wall-clock metrics (CI runners "
                             "are not comparable to the baseline machine)")
    parser.add_argument("--artifacts", nargs="*", default=None,
                        help="restrict to these artifact names (default: "
                             "every spec'd artifact with a baseline)")
    parser.add_argument("--update-baselines", action="store_true",
                        help="re-pin: copy fresh spec'd artifacts over the "
                             "baseline directory instead of comparing")
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        print("tolerance must be non-negative", file=sys.stderr)
        return 2
    if args.update_baselines:
        try:
            updated = update_baselines(
                args.baseline_dir, args.fresh_dir, args.artifacts
            )
        except (OSError, ValueError) as exc:
            print(f"cannot update baselines: {exc}", file=sys.stderr)
            return 2
        if not updated:
            print("no spec'd artifacts found in "
                  f"{args.fresh_dir} — nothing re-pinned", file=sys.stderr)
            return 2
        for name in updated:
            print(f"  re-pinned {name} -> {args.baseline_dir / name}")
        print(f"baselines updated: {len(updated)} artifact(s); "
              "review and commit the diff")
        return 0
    if not args.baseline_dir.is_dir():
        print(f"baseline dir {args.baseline_dir} does not exist",
              file=sys.stderr)
        return 2
    try:
        results = compare_dirs(
            args.baseline_dir, args.fresh_dir, args.tolerance,
            args.ratio_only, args.artifacts,
        )
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return 2
    print(f"perf gate: {args.fresh_dir} vs baseline {args.baseline_dir} "
          f"(tolerance {args.tolerance:g}"
          f"{', ratio-only' if args.ratio_only else ''})")
    for comparison in results:
        print(comparison.line())
    failures = [c for c in results if c.regressed]
    checked = sum(1 for c in results if not c.skipped)
    if not checked:
        print("perf gate: no metrics compared — missing baselines?",
              file=sys.stderr)
        return 2
    if failures:
        print(f"perf gate: {len(failures)} regression(s) in "
              f"{checked} checked metric(s)", file=sys.stderr)
        return 1
    print(f"perf gate: clean ({checked} metric(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

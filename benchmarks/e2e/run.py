"""End-to-end benchmark of the Coterie reproduction: four real invocations.

    python benchmarks/e2e/run.py [--workload NAME]... [--seed S] [--trace]
                                 [--seconds N] [--out FILE] [--update-reference]

Each workload repetition runs in its own fresh interpreter (``child.py``),
one after another, single-threaded.  A run repeats a workload while
another repetition still fits in ``--seconds`` (always at least once) and
reports the median of each end-to-end metric over the repetitions.  With
``--trace`` every repetition is followed by a traced twin that supplies
the per-layer numbers and must reproduce every simulated value.  Where
``reference.json`` holds the seed, every simulated value is also checked
against it: equal to 1e-9, or better.  ``--scale smoke`` is the
self-tests' hook: seconds per workload, numbers not comparable.

Every metric is printed by name with its unit; the last line of standard
output is the JSON object the driver reads (``--trace 0``: the gated
end-to-end metrics, ``--trace 1``: the per-layer ones).  Exits 1 when an
operation or a check fails.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import spec  # noqa: E402

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SIM_METRICS = tuple(m for m in spec.END_TO_END if m.clock == "sim")


def run_child(workload: str, seed: int, scale: str, traced: bool) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns the child's report."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--trace", str(int(traced)),
    ]
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        command += ["--trace-out", str(OUT_DIR / f"trace_{workload}.json")]
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def observer_failures(plain: List[dict], traced: List[dict]) -> List[str]:
    """Checks across repetitions: every process, traced or not, must
    report the same simulated values and failures, and a trace's layer
    self-times plus the unattributed rest must add up to the phase wall."""
    failures = []
    reference = plain[0]
    for index, report in enumerate(plain[1:] + traced, start=1):
        kind = "traced" if report["traced"] else "untraced"
        for name in (m.name for m in SIM_METRICS):
            a, b = reference["end_to_end"].get(name), report["end_to_end"].get(name)
            if a != b:
                failures.append(f"observer: {name} {b!r} in {kind} repetition {index}, first read {a!r}")
        if report["ops_failed"] != reference["ops_failed"]:
            failures.append(f"observer: ops_failed differs in {kind} repetition {index}")
    for report in traced:
        for phase, parts in report["phase_breakdown_s"].items():
            wall = report["phase_wall_s"][phase]
            covered = sum(v for k, v in parts.items() if k != "wall")
            if abs(covered - wall) > 0.01 * wall:
                failures.append(
                    f"observer: {phase} layer self-times sum to {covered:.4f} s, wall {wall:.4f} s"
                )
    return failures


def reference_failures(expected: Dict[str, float], values: Dict[str, float]) -> List[str]:
    """The "exact" bound of the simulated metrics, against the committed
    values of the same workload and seed: a change that only speeds the
    simulator up must reproduce each one to 1e-9, a change to the modelled
    design may only move it in its better direction."""
    failures = []
    for metric in SIM_METRICS:
        if metric.name not in expected:
            continue
        want, got = expected[metric.name], values.get(metric.name)
        if got is None or compare.verdict(metric, [want], [got])[0] != "ok":
            failures.append(
                f"reference: {metric.name} {got!r} is worse than the committed {want!r}")
    return failures


def run_workload(name: str, seed: int, scale: str, seconds: float, trace: bool,
                 expected: Optional[Dict[str, float]] = None) -> Dict[str, Any]:
    """Repeat one workload while another repetition (with its traced twin,
    if any) still fits in ``seconds``, at least once, and fold them."""
    plain: List[dict] = []
    traced: List[dict] = []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        plain.append(run_child(name, seed, scale, traced=False))
        if trace:
            traced.append(run_child(name, seed, scale, traced=True))
        now = time.perf_counter()
        if (now - start) + (now - lap) > seconds:
            break
    return fold(plain, traced, expected)


def fold(plain: List[dict], traced: List[dict],
         expected: Optional[Dict[str, float]] = None) -> Dict[str, Any]:
    """One workload's result from its repetitions' reports: the checks
    across them, the median of every metric, and its samples.

    ``expected`` holds the committed simulated values of this workload
    and seed, where there are any."""
    reports = plain + traced
    failures = [f for report in reports for f in report["failures"]]
    failures += observer_failures(plain, traced)
    if expected is not None:
        failures += reference_failures(expected, plain[0]["end_to_end"])
    result: Dict[str, Any] = {
        "reps": len(plain),
        "reference_checked": expected is not None,
        "ops_attempted": sum(r["ops_attempted"] for r in reports),
        "ops_failed": len(failures),
        "failures": failures,
        "phase_wall_s": {
            phase: [r["phase_wall_s"][phase] for r in plain]
            for phase in plain[0]["phase_wall_s"]
        },
        "end_to_end": {
            metric: {
                "value": statistics.median([r["end_to_end"][metric] for r in plain]),
                "unit": spec.UNITS[metric],
                "samples": [r["end_to_end"][metric] for r in plain],
            }
            for metric in plain[0]["end_to_end"]
        },
        "paper": plain[0]["paper"],
    }
    if traced:
        layers = {
            layer: statistics.median([r["layers"][layer] for r in traced])
            for layer in traced[0]["layers"]
        }
        layers["bench.trace_overhead_pct"] = 100.0 * (
            statistics.median([r["end_to_end"]["cold_wall_s"] for r in traced])
            / result["end_to_end"]["cold_wall_s"]["value"] - 1.0
        )
        result["per_layer"] = {
            layer: {"value": layers[layer], "unit": spec.UNITS[layer]}
            for layer in spec.LAYER_NAMES
        }
        result["phase_breakdown_s"] = traced[-1]["phase_breakdown_s"]
    return result


def environment(seed: int, scale: str, seconds: float) -> Dict[str, Any]:
    """Where and how the numbers were taken (stored in the result file)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "thread_env": THREAD_ENV,
        "seed": seed,
        "scale": scale,
        "comparable": scale != "smoke",
        "seconds": seconds,
    }


def print_report(name: str, result: Dict[str, Any], env: Dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    flag = "" if env["comparable"] else "  [smoke scale: numbers not comparable]"
    print(f"== {name}  seed {env['seed']}  scale {env['scale']}  reps {result['reps']}{flag}")
    walls = "  ".join(
        f"{phase} {statistics.median(samples):.3f} s"
        for phase, samples in result["phase_wall_s"].items()
    )
    print(f"   phase wall (median): {walls}")
    print("   end-to-end (untraced run)")
    for metric in spec.END_TO_END:
        entry = result["end_to_end"].get(metric.name)
        if entry is None:
            continue
        bound = f"bound {metric.bound:.0%}" if metric.bound is not None else "not gated"
        line = (f"     {metric.name:<30} {entry['value']:>14.6f} {metric.unit:<11}"
                f" {metric.better:<6} {metric.clock:<4} {bound}")
        paper = result["paper"].get(metric.name)
        if paper is not None:
            line += f"  (paper {paper:g}, diff {entry['value'] - paper:+.4g})"
        print(line)
    if "per_layer" in result:
        print("   per-layer (traced run)")
        for layer, entry in result["per_layer"].items():
            print(f"     {layer:<36} {entry['value']:>16.6f} {entry['unit']}")
        for phase, parts in result["phase_breakdown_s"].items():
            wall = parts["wall"]
            shares = "  ".join(
                f"{layer} {100.0 * value / wall:.1f}%"
                for layer, value in sorted(parts.items(), key=lambda kv: -kv[1])
                if layer != "wall" and wall > 0 and value / wall >= 0.005
            )
            print(f"   {phase:<5} {wall:8.3f} s self-time shares: {shares}")
    print("   simulated values " + (
        "checked against reference.json" if result["reference_checked"]
        else "not checked: reference.json has no entry for this seed and scale"))
    print(f"   ops_attempted {result['ops_attempted']}  ops_failed {result['ops_failed']}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")


def driver_line(result: Dict[str, Any], trace: bool) -> str:
    """The one-line JSON object of the driver's contract."""
    # A metric the workload does not define (fleet_* on a session
    # workload), or lost to a failed operation, reads 0.
    metrics = {
        m.name: {"value": result["end_to_end"].get(m.name, {}).get("value", 0.0),
                 "unit": m.unit}
        for m in (spec.UNGATED if trace else spec.GATED)
    }
    if trace:
        metrics.update(result["per_layer"])
    return json.dumps({
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS),
                        help="repeatable; default: all four, in order")
    parser.add_argument("--seed", type=int, default=0,
                        help="the only input knob: session and arrival seeds derive from it")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                        help="also run traced twins and report per-layer metrics")
    parser.add_argument("--scale", choices=spec.SCALES, default=spec.SCALES[0],
                        help="smoke: the self-tests' hook, seconds per workload, "
                             "numbers not comparable")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat each workload while another repetition fits in this "
                             "many seconds (default: once)")
    parser.add_argument("--out", help="write the result file (input of compare.py) here")
    parser.add_argument("--update-reference", action="store_true",
                        help="record this run's simulated values in reference.json "
                             "instead of checking them")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no simulator to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    env = environment(args.seed, args.scale, args.seconds)
    if args.update_reference and not env["comparable"]:
        parser.error("--update-reference records comparable numbers: not with --scale smoke")
    document = {"schema": 1, "environment": env, "workloads": {}}
    reference = json.loads(REFERENCE.read_text()) if env["comparable"] else {}
    lines = []
    for name in args.workload or list(spec.WORKLOADS):
        recorded = reference.setdefault(name, {})
        expected = None if args.update_reference else recorded.get(str(args.seed))
        result = run_workload(name, args.seed, args.scale, args.seconds,
                              bool(args.trace), expected)
        document["workloads"][name] = result
        print_report(name, result, env)
        lines.append(driver_line(result, bool(args.trace)))
        if args.update_reference and result["ops_failed"] == 0:
            recorded[str(args.seed)] = {
                m.name: result["end_to_end"][m.name]["value"]
                for m in SIM_METRICS if m.name in result["end_to_end"]
            }
    if args.update_reference:
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
    sys.stdout.flush()
    for line in lines:
        print(line)
    failed = sum(r["ops_failed"] for r in document["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""E-T11 — observer overhead: a tracer, a metrics hub and an idle
supervisor must observe a run, neither steer nor slow it.

Three subsystems make that promise (DESIGN.md §8, §12 and the session
supervisor): a live :class:`~repro.telemetry.SpanTracer`, a live
:class:`~repro.telemetry.MetricsHub` and a supervisor seated over an
empty :class:`~repro.faults.ChurnSchedule` each leave the run's frames
bit-identical and cost a few percent of wall time at most.  One scenario
exercises all three — 2-player racing Coterie over the cellular capacity
trace with a loss dip and a server stall, so the tracer sees every stage
lane, the hub's deadline-miss SLO burns and the supervisor scans a
roster that misses deadlines — and is run as five legs per repeat:

* ``plain`` — no observer; ``null`` — a second plain run, whose wall
  ratio to ``plain`` measures what two identical runs differ by on this
  machine, this minute;
* ``traced``, ``metered``, ``supervised`` — one observer each.

The legs rotate one position per repeat (five repeats: every leg runs in
every position once), ``overhead = median(leg / plain) - 1`` over the
per-repeat ratios and ``noise = median(|null / plain - 1|)``.  An
overhead is judged against its own noise floor,
``overhead < max(MAX_OVERHEAD, 2 * noise)``: what the floor cannot
resolve is reported as "within noise", never as a speed-up.  Every
observed leg must also reproduce ``plain`` bit for bit.  What the
observers *emit* (Chrome trace schema, stage lanes, budget attribution,
SLO alert times, OpenMetrics, JSONL round-trip, churn invariants) is
pinned by tier-1 tests under ``tests/telemetry`` and
``tests/systems/test_churn.py``, not here.

Results land in ``benchmarks/results/BENCH_overhead.json``.  Run
standalone with ``python benchmarks/bench_overhead.py`` (add ``--smoke``
for the CI quick mode: shorter run, two repeats, and an overhead floor
that only catches disasters — the identity gates never relax).
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).parent))

from harness import fmt, gated_bench, run_cost, table, write_bench

from repro.faults import ChurnSchedule, FaultSchedule
from repro.net import ImpairmentConfig, RateTrace
from repro.systems import SessionConfig, prepare_artifacts, run_coterie
from repro.telemetry import MetricsHub, SpanTracer
from repro.world import load_game

GAME = "racing"
SEED = 1
PLAYERS = 2
TRACE_PROFILE = "cellular"
# The dip sits inside the smoke horizon so the miss-rate SLO burns in
# both modes; the stall puts a server wait on the trace's fetch lane.
FAULT_SPEC = "dip@500-1500:0.05,stall@500-700:20"

LEGS = ("plain", "null", "traced", "metered", "supervised")
OBSERVERS = LEGS[2:]

DURATION_S = 4.0
REPEATS = len(LEGS)  # one full rotation
MAX_OVERHEAD = 0.05

SMOKE_DURATION_S = 2.0
SMOKE_REPEATS = 2
# Two repeats on a one-shot CI runner resolve nothing near 5%; the smoke
# floor only catches disasters (an observer scheduling per-frame events).
SMOKE_MAX_OVERHEAD = 0.50


def judge_overhead(walls, floor):
    """Per-observer overhead verdicts from per-repeat leg wall times.

    ``walls`` maps each of :data:`LEGS` to its wall seconds, one entry
    per repeat (index ``i`` of every leg is the same repeat).  Ratios
    are taken within a repeat, so drift between repeats cancels; the
    gate each observer is held to is ``max(floor, 2 * noise)``.
    """
    plain = walls["plain"]
    null_ratios = [w / p for w, p in zip(walls["null"], plain)]
    noise = median(abs(r - 1.0) for r in null_ratios)
    gate = max(floor, 2.0 * noise)
    verdicts = {}
    for name in OBSERVERS:
        ratios = [w / p for w, p in zip(walls[name], plain)]
        overhead = median(ratios) - 1.0
        if overhead <= noise:
            verdict = "within noise"
        else:
            verdict = "measurable" if overhead < gate else "over gate"
        verdicts[name] = {
            "ratios": ratios,
            "overhead": overhead,
            "verdict": verdict,
            "passed": overhead < gate,
        }
    return {
        "null_ratios": null_ratios,
        "noise": noise,
        "gate": gate,
        "observers": verdicts,
    }


def _config(duration_s, leg):
    """The scenario with ``leg``'s observer (a fresh one per run: record
    lists and sample rings never grow across repeats) attached."""
    impairment = ImpairmentConfig(
        rate_trace=RateTrace.named(
            TRACE_PROFILE, seed=SEED, duration_ms=duration_s * 1000.0
        )
    )
    return SessionConfig(
        duration_s=duration_s, seed=SEED, impairment=impairment,
        faults=FaultSchedule.parse(FAULT_SPEC),
        tracer=SpanTracer() if leg == "traced" else None,
        metrics=MetricsHub() if leg == "metered" else None,
        churn=ChurnSchedule() if leg == "supervised" else None,
    )


def _frame_key(result):
    """Frame-level outputs that must match ``plain`` bit for bit.

    The membership bookkeeping fields are nonzero on a supervised run by
    design (and zero on every other leg), so they are normalised out:
    the gate is about the *frame* path being untouched.
    """
    return (
        [
            dataclasses.replace(
                p.metrics, join_latency_ms=0.0, warmup_ms=0.0,
                epochs_survived=0, evictions=0, incarnations=0,
            )
            for p in result.players
        ],
        result.be_mbps,
        result.fi_kbps,
    )


def _work(leg, config, result):
    """How much the leg's observer saw: 0 means it was never attached."""
    if leg == "traced":
        return len(config.tracer)
    if leg == "metered":
        return config.metrics.samples_taken
    return result.membership.invariant_checks


def run_benchmark(smoke=False):
    """Time every leg ``repeats`` times, rotating the order per repeat."""
    duration_s = SMOKE_DURATION_S if smoke else DURATION_S
    repeats = SMOKE_REPEATS if smoke else REPEATS
    world = load_game(GAME)
    artifacts = prepare_artifacts(
        world, SessionConfig(duration_s=duration_s, seed=SEED)
    )
    # Untimed: the first run after set-up is a few percent slower, which
    # would bias every ratio of the repeat whose `plain` it happens to be.
    run_coterie(world, PLAYERS, _config(duration_s, "plain"), artifacts)
    walls = {leg: [] for leg in LEGS}
    identical = {name: True for name in OBSERVERS}
    work = {}
    for rep in range(repeats):
        shift = rep % len(LEGS)
        keys = {}
        for leg in LEGS[shift:] + LEGS[:shift]:
            config = _config(duration_s, leg)
            t0 = time.perf_counter()
            result = run_coterie(world, PLAYERS, config, artifacts)
            walls[leg].append(time.perf_counter() - t0)
            keys[leg] = _frame_key(result)
            if leg in OBSERVERS:
                work[leg] = _work(leg, config, result)
        for name in OBSERVERS:
            identical[name] = identical[name] and keys[name] == keys["plain"]
    floor = SMOKE_MAX_OVERHEAD if smoke else MAX_OVERHEAD
    return {
        "smoke": smoke,
        "duration_s": duration_s,
        "repeats": repeats,
        "walls_s": walls,
        **judge_overhead(walls, floor),
        "identical_to_plain": identical,
        "work": work,
    }


def _acceptance(m):
    """Named gates; the identity gates are the same in both modes."""
    checks = {}
    for name, verdict in m["observers"].items():
        checks[f"{name}_overhead_under_gate"] = verdict["passed"]
        checks[f"{name}_bit_identical_to_plain"] = m["identical_to_plain"][name]
        checks[f"{name}_observer_did_work"] = m["work"][name] > 0
    return checks


def _record(m, checks):
    payload = {
        "benchmark": "observer_overhead",
        "game": GAME,
        "seed": SEED,
        "players": PLAYERS,
        "trace_profile": TRACE_PROFILE,
        "fault_spec": FAULT_SPEC,
        **m,
        "acceptance": checks,
        "cost": run_cost(),
    }
    write_bench("BENCH_overhead.json", payload)
    rows = [
        (
            name,
            fmt(median(m["walls_s"][name]), 3),
            f"{100 * v['overhead']:+.1f}%",
            " ".join(f"{r:.3f}" for r in v["ratios"]),
            v["verdict"],
            "yes" if m["identical_to_plain"][name] else "NO",
        )
        for name, v in m["observers"].items()
    ]
    print("\n" + table(
        "BENCH_overhead",
        ("observer", "median s", "overhead", "leg/plain per repeat",
         "verdict", "== plain"),
        rows,
        notes=f"{GAME}, {PLAYERS} players, {m['duration_s']:g}s over the "
        f"{TRACE_PROFILE} trace with {FAULT_SPEC}; {m['repeats']} rotated "
        f"repeats, plain median {fmt(median(m['walls_s']['plain']), 3)} s; "
        f"noise floor {100 * m['noise']:.1f}% (null/plain), "
        f"gate {100 * m['gate']:.1f}%",
    ))
    return payload


main, test_observer_overhead = gated_bench(
    run_benchmark, _acceptance, _record, group="telemetry"
)


if __name__ == "__main__":
    sys.exit(main())

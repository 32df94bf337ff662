"""E-FL1 — fleet serving: shared render farm vs isolated, join latency.

The fleet package (``repro.fleet``) claims that cross-session panorama
dedup turns into *serving capacity*: far-BE panoramas are pure functions
of (world, grid point), so sessions of the same game share renders, the
admission controller discounts demand by the store's observed miss
ratio, and the same GPU budget admits — and completes — more sessions
than per-session isolated serving.  This benchmark pins that claim plus
the fleet's player-facing outcomes:

* **workload legs** — one fleet run per canonical arrival process
  (``poisson``, ``diurnal``, ``flash``), recording sessions/sec and join
  latency p50/p99 (every value is sim-time deterministic);
* **comparison leg** — the same flash-crowd arrivals and GPU budget
  served twice, ``shared=True`` vs ``shared=False``; the gate requires
  shared serving to complete strictly more sessions/sec;
* **identity leg** — a one-session fleet run under ``fidelity="full"``
  must replay bit-identically to the equivalent standalone
  ``repro run`` (the fleet layer adds capacity, never perturbs a
  session);
* **determinism leg** — the same fleet config run twice must produce
  ``==`` summaries.

Results land in ``benchmarks/results/BENCH_fleet.json``.  Run standalone
with ``python benchmarks/bench_fleet.py`` (add ``--smoke`` for the CI
quick mode: shorter arrival horizons, same gates).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from harness import fmt, gated_bench, run_cost, table, write_bench

from repro.cli import _first_divergence
from repro.fleet import (
    WORKLOADS,
    ArrivalTrace,
    FleetBudget,
    FleetConfig,
    LobbyConfig,
    PlayerArrival,
    run_fleet,
)
from repro.systems import SessionConfig, run_system

GAME = "racing"
SEED = 7
RATE_PER_S = 1.0

DURATION_S = 30.0
SMOKE_DURATION_S = 12.0
SESSION_DURATION_S = 8.0
SMOKE_SESSION_DURATION_S = 5.0

# The comparison leg runs the same config in both modes and must show a
# capacity win, so its budget is deliberately tight: a flash crowd on
# two GPU slots binds Constraint 1, and only the shared store's falling
# miss ratio frees enough render budget to admit the surge.
COMPARISON = dict(
    workload="flash",
    rate_per_s=1.0,
    duration_s=20.0,
    session_duration_s=6.0,
    gpu_slots=2,
)

IDENTITY_PLAYERS = 4
IDENTITY_DURATION_S = 4.0


def _lobby():
    return LobbyConfig(session_size=4, min_session_size=2)


def _workload_config(workload, smoke):
    return FleetConfig(
        workload=workload,
        rate_per_s=RATE_PER_S,
        duration_s=SMOKE_DURATION_S if smoke else DURATION_S,
        seed=SEED,
        games=(GAME,),
        lobby=_lobby(),
        session_duration_s=(
            SMOKE_SESSION_DURATION_S if smoke else SESSION_DURATION_S
        ),
    )


def _comparison_config(shared):
    return FleetConfig(
        workload=COMPARISON["workload"],
        rate_per_s=COMPARISON["rate_per_s"],
        duration_s=COMPARISON["duration_s"],
        seed=SEED,
        games=(GAME,),
        lobby=_lobby(),
        session_duration_s=COMPARISON["session_duration_s"],
        budget=FleetBudget(gpu_slots=COMPARISON["gpu_slots"]),
        shared=shared,
    )


def _workload_row(summary):
    return {
        "arrivals": summary.arrivals,
        "sessions_completed": summary.sessions_completed,
        "sessions_rejected": summary.sessions_rejected,
        "sessions_per_s": summary.sessions_per_s,
        "join_p50_ms": summary.join_p50_ms,
        "join_p99_ms": summary.join_p99_ms,
        "dedup_ratio": summary.dedup_ratio,
        "farm_queue_peak": summary.farm.queue_peak,
        "deadline_misses": summary.farm.deadline_misses,
    }


def run_benchmark(smoke=False):
    """Run the workload, comparison, identity, and determinism legs."""
    workloads = {}
    for workload in WORKLOADS:
        summary = run_fleet(_workload_config(workload, smoke)).summary
        workloads[workload] = _workload_row(summary)

    shared = run_fleet(_comparison_config(True)).summary
    isolated = run_fleet(_comparison_config(False)).summary
    comparison = {
        "gpu_slots": COMPARISON["gpu_slots"],
        "shared_sessions_completed": shared.sessions_completed,
        "isolated_sessions_completed": isolated.sessions_completed,
        "shared_sessions_per_s": shared.sessions_per_s,
        "isolated_sessions_per_s": isolated.sessions_per_s,
        "sessions_per_s_ratio": (
            shared.sessions_per_s / isolated.sessions_per_s
            if isolated.sessions_per_s > 0 else float("inf")
        ),
        "shared_renders": shared.farm.renders,
        "isolated_renders": isolated.farm.renders,
        "dedup_hit_ratio": shared.dedup_ratio,
    }

    # Identity: one full-fidelity fleet session vs the standalone engine.
    trace = ArrivalTrace(
        [PlayerArrival(0.0, GAME) for _ in range(IDENTITY_PLAYERS)]
    )
    fleet = run_fleet(FleetConfig(
        arrivals=trace,
        seed=SEED,
        games=(GAME,),
        lobby=LobbyConfig(session_size=IDENTITY_PLAYERS,
                          min_session_size=IDENTITY_PLAYERS),
        session_duration_s=IDENTITY_DURATION_S,
        fidelity="full",
    ))
    standalone = run_system(
        "coterie", GAME, IDENTITY_PLAYERS,
        SessionConfig(duration_s=IDENTITY_DURATION_S, seed=SEED),
    )
    if len(fleet.session_runs) != 1:
        identity_divergence = (
            f"expected 1 session replay, got {len(fleet.session_runs)}"
        )
    else:
        identity_divergence = _first_divergence(
            fleet.session_runs[0], standalone
        )
    identity = {
        "mismatches": 0 if identity_divergence is None else 1,
        "divergence": identity_divergence,
    }

    # Determinism: the poisson leg replayed must be bit-identical.
    a = run_fleet(_workload_config("poisson", smoke))
    b = run_fleet(_workload_config("poisson", smoke))
    determinism = {
        "mismatches": 0 if (a.summary == b.summary
                            and a.sessions == b.sessions) else 1,
    }

    return {
        "smoke": smoke,
        "workloads": workloads,
        "comparison": comparison,
        "identity": identity,
        "determinism": determinism,
    }


def _acceptance(m):
    """Named gates; the capacity-win and identity gates never relax."""
    comparison = m["comparison"]
    checks = {
        "shared_beats_isolated_sessions_per_s": (
            comparison["sessions_per_s_ratio"] > 1.0
        ),
        "dedup_actually_happens": comparison["dedup_hit_ratio"] >= 0.3,
        "shared_renders_fewer": (
            comparison["shared_renders"] < comparison["isolated_renders"]
        ),
        "single_session_bit_identical": m["identity"]["mismatches"] == 0,
        "fleet_replay_bit_identical": m["determinism"]["mismatches"] == 0,
    }
    for workload, row in m["workloads"].items():
        checks[f"{workload}_completed_sessions"] = (
            row["sessions_completed"] >= 1
        )
        checks[f"{workload}_join_p99_reported"] = row["join_p99_ms"] > 0.0
    return checks


def _record(m, checks):
    payload = {
        "benchmark": "fleet",
        "game": GAME,
        "seed": SEED,
        "rate_per_s": RATE_PER_S,
        **{k: v for k, v in m.items() if not k.startswith("_")},
        "acceptance": checks,
        "cost": run_cost(),
    }
    write_bench("BENCH_fleet.json", payload)
    rows = []
    for workload, row in m["workloads"].items():
        rows.append((
            workload,
            str(row["sessions_completed"]),
            fmt(row["sessions_per_s"], 4),
            fmt(row["join_p50_ms"], 1),
            fmt(row["join_p99_ms"], 1),
            f"{100 * row['dedup_ratio']:.1f}%",
            str(row["farm_queue_peak"]),
        ))
    comparison = m["comparison"]
    rows.append((
        "flash (shared, tight)",
        str(comparison["shared_sessions_completed"]),
        fmt(comparison["shared_sessions_per_s"], 4),
        "-", "-",
        f"{100 * comparison['dedup_hit_ratio']:.1f}%",
        "-",
    ))
    rows.append((
        "flash (isolated, tight)",
        str(comparison["isolated_sessions_completed"]),
        fmt(comparison["isolated_sessions_per_s"], 4),
        "-", "-", "0.0%", "-",
    ))
    print("\n" + table(
        "BENCH_fleet",
        ("workload", "sessions", "sessions/s", "join p50 ms",
         "join p99 ms", "dedup", "queue peak"),
        rows,
        notes=f"{GAME}, rate {RATE_PER_S:g}/s, seed {SEED}; comparison "
        f"legs on {comparison['gpu_slots']} GPU slots — shared/isolated "
        f"sessions-per-s ratio {comparison['sessions_per_s_ratio']:.3f}",
    ))
    return payload


main, test_fleet_shared_serving_wins = gated_bench(
    run_benchmark, _acceptance, _record, group="fleet"
)


if __name__ == "__main__":
    sys.exit(main())

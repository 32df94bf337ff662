"""E-R1 — resilience sweep: Coterie under lossy links and scripted faults.

The paper evaluates Coterie on a clean 802.11ac link; this benchmark asks
what the graceful-degradation machinery buys when the link is *not* clean.
Three legs, all on the racing game with shared offline artifacts:

* **loss sweep** — bursty (Gilbert-Elliott) packet loss in {0%, 5%, 15%}
  crossed with {1, 2, 4} players.  0% loss must match the clean baseline
  exactly (the impairment path is identity); >=5% loss must finish without
  deadlock, report a nonzero prefetch deadline-miss rate, and keep the
  stale-frame fallback age bounded;
* **outage** — a scripted 5 s link collapse (capacity x0.02 + 20% loss)
  mid-run; clients must ride it out on stale cached panoramas and recover
  to 60 FPS after the link heals, with a measured recovery time;
* **determinism** — the outage leg rerun bit-for-bit: same schedule + seed
  must reproduce identical FPS, traffic, and resilience counters.

Results land in ``benchmarks/results/BENCH_resilience.json``.  Run
standalone with
``python benchmarks/bench_resilience.py`` or under pytest-benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from harness import fmt, gated_bench, run_cost, table, write_bench

from repro.faults import FaultSchedule
from repro.net import ImpairmentConfig
from repro.systems import SessionConfig, prepare_artifacts, run_coterie
from repro.world import load_game

GAME = "racing"
SEED = 1
SWEEP_DURATION_S = 4.0
LOSS_RATES = (0.0, 0.05, 0.15)
PLAYER_COUNTS = (1, 2, 4)

OUTAGE_DURATION_S = 12.0
OUTAGE_PLAYERS = 4
# 5 s near-total link collapse: capacity x0.02 plus 20% bursty loss.
OUTAGE_SPEC = "dip@3000-8000:0.02,loss@3000-8000:0.2"
OUTAGE_END_MS = 8000.0
MAX_STALE_AGE_MS = 2000.0  # bounded-staleness acceptance ceiling
MAX_RECOVERY_MS = 3000.0  # 60 FPS must return within 3 s of link healing


def _summarize(result):
    """Flatten one run into the record the sweep table needs."""
    metrics = [p.metrics for p in result.players]
    return {
        "fps": round(result.mean_fps, 3),
        "inter_frame_ms": round(result.mean_inter_frame_ms, 3),
        "be_mbps": round(result.be_mbps, 3),
        "deadline_miss_rate": round(
            sum(m.deadline_miss_rate for m in metrics) / len(metrics), 4
        ),
        "stale_frames": sum(m.stale_frames for m in metrics),
        "max_stale_age_ms": round(max(m.max_stale_age_ms for m in metrics), 2),
        "fetch_retries": sum(m.fetch_retries for m in metrics),
        "fetches_abandoned": sum(m.fetches_abandoned for m in metrics),
    }


def _sweep(world, artifacts):
    """Loss-rate x player-count grid, plus matching clean baselines."""
    cells = []
    for players in PLAYER_COUNTS:
        clean = run_coterie(
            world, players,
            SessionConfig(duration_s=SWEEP_DURATION_S, seed=SEED),
            artifacts,
        )
        for loss in LOSS_RATES:
            config = SessionConfig(
                duration_s=SWEEP_DURATION_S, seed=SEED,
                impairment=ImpairmentConfig.bursty(loss, seed=SEED),
            )
            run = run_coterie(world, players, config, artifacts)
            cell = {"players": players, "loss": loss, **_summarize(run)}
            cell["clean_fps"] = round(clean.mean_fps, 3)
            cell["matches_clean"] = (
                run.mean_fps == clean.mean_fps and run.be_mbps == clean.be_mbps
            )
            cells.append(cell)
    return cells


def _outage(world, artifacts):
    """Scripted 5 s link collapse; returns (record, raw results x2)."""
    config = SessionConfig(
        duration_s=OUTAGE_DURATION_S, seed=SEED,
        faults=FaultSchedule.parse(OUTAGE_SPEC),
    )
    first = run_coterie(world, OUTAGE_PLAYERS, config, artifacts)
    second = run_coterie(world, OUTAGE_PLAYERS, config, artifacts)
    recoveries = [p.recovery_ms(OUTAGE_END_MS) for p in first.players]
    record = {
        "spec": OUTAGE_SPEC,
        "players": OUTAGE_PLAYERS,
        "duration_s": OUTAGE_DURATION_S,
        **_summarize(first),
        "recovery_ms": [
            None if r is None else round(r, 2) for r in recoveries
        ],
        "deterministic": (
            first.mean_fps == second.mean_fps
            and first.be_mbps == second.be_mbps
            and _summarize(first) == _summarize(second)
        ),
    }
    return record, recoveries


def run_benchmark():
    """Run all legs; returns the sweep cells, outage record and recoveries."""
    world = load_game(GAME)
    artifacts = prepare_artifacts(
        world, SessionConfig(duration_s=SWEEP_DURATION_S, seed=SEED)
    )
    cells = _sweep(world, artifacts)
    outage, recoveries = _outage(world, artifacts)
    return {"sweep": cells, "outage": outage, "_recoveries": recoveries}


def _acceptance(m):
    """The ISSUE's acceptance gates; returns a dict of named booleans."""
    cells, outage, recoveries = m["sweep"], m["outage"], m["_recoveries"]
    zero_loss = [c for c in cells if c["loss"] == 0.0]
    lossy = [c for c in cells if c["loss"] >= 0.05]
    return {
        "zero_loss_matches_clean": all(c["matches_clean"] for c in zero_loss),
        "lossy_runs_complete": all(c["fps"] > 0 for c in lossy),
        "lossy_misses_deadlines": all(
            c["deadline_miss_rate"] > 0 for c in lossy
        ),
        "stale_age_bounded": all(
            c["max_stale_age_ms"] < MAX_STALE_AGE_MS for c in lossy
        ),
        "outage_recovers": all(
            r is not None and r < MAX_RECOVERY_MS for r in recoveries
        ),
        "outage_deterministic": outage["deterministic"],
    }


def _record(m, checks):
    cells, outage = m["sweep"], m["outage"]
    payload = {
        "benchmark": "resilience",
        "game": GAME,
        "seed": SEED,
        "loss_rates": list(LOSS_RATES),
        "player_counts": list(PLAYER_COUNTS),
        "sweep": cells,
        "outage": outage,
        "acceptance": checks,
        "cost": run_cost(),
    }
    write_bench("BENCH_resilience.json", payload)
    rows = [
        (
            c["players"],
            f"{100 * c['loss']:g}%",
            fmt(c["fps"]),
            f"{100 * c['deadline_miss_rate']:.1f}%",
            c["stale_frames"],
            fmt(c["max_stale_age_ms"], 0),
            c["fetch_retries"],
        )
        for c in cells
    ]
    recovery = ", ".join(
        "-" if r is None else f"{r:.0f}" for r in outage["recovery_ms"]
    )
    print("\n" + table(
        "BENCH_resilience",
        ("players", "loss", "fps", "miss", "stale", "max age ms", "retries"),
        rows,
        notes=f"{GAME}, {SWEEP_DURATION_S:g}s sweep; outage {OUTAGE_SPEC}: "
        f"fps {fmt(outage['fps'])}, recovery [{recovery}] ms",
    ))
    return payload


main, test_resilience = gated_bench(
    run_benchmark, _acceptance, _record, group="resilience", smoke=False
)


if __name__ == "__main__":
    sys.exit(main())

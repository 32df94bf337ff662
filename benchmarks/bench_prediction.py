"""E-R4 — speculative prefetch effectiveness and desync detection.

The speculation subsystem (``repro.predict``) promises three things:

* **effectiveness** — dead-reckoning pose forecasts warm the far-BE
  cache ahead of motion, so the cache hit ratio improves over the
  non-speculative baseline on most trajectory genres (racing/chasing,
  group adventure, competing shooting — the three movement models);
* **safety** — a speculative frame is only displayed after its oracle
  digest check passes; a scripted corruption storm
  (``speccorrupt@a-b``) must be fully absorbed by rollbacks with the
  display cadence intact;
* **sync hygiene** — the cross-peer desync validator raises *zero*
  alarms on clean runs (false alarms would make the detector useless).

Each genre runs twice from the same seed — ``predict=None`` baseline,
then ``PredictConfig()`` with the sync validator attached — plus one
corruption-storm leg on the racing genre.  Results land in
``benchmarks/results/BENCH_prediction.json``.  Run standalone with
``python benchmarks/bench_prediction.py`` (add ``--smoke`` for the CI
quick mode: shorter runs; the safety and false-alarm gates never
relax).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from harness import fmt, gated_bench, run_cost, table, write_bench

from repro.faults import FaultSchedule
from repro.predict import PredictConfig
from repro.session import SyncConfig
from repro.systems import SessionConfig, prepare_artifacts, run_coterie
from repro.world import load_game

#: One game per trajectory genre (racing/chasing, group adventure,
#: competing shooting) — the movement models speculation must handle.
GAMES = ("racing", "cts", "viking")
SEED = 1
PLAYERS = 2

DURATION_S = 4.0
CORRUPT_FAULTS = "speccorrupt@500-2500"

SMOKE_DURATION_S = 2.0
SMOKE_CORRUPT_FAULTS = "speccorrupt@300-1500"

#: Displayed-cadence band: speculation (and its rollbacks) must not
#: cost frames — each predict run holds its own baseline's frame rate
#: to within this many fps (some genres pace below 60 by design).
FPS_TOLERANCE = 0.1


def _run(world, artifacts, duration_s, predict=None, sync=None, faults=None):
    """One coterie run with the given speculation/sync/fault config."""
    config = SessionConfig(
        duration_s=duration_s, seed=SEED,
        predict=predict, sync=sync, faults=faults,
    )
    return run_coterie(world, PLAYERS, config, artifacts)


def _totals(result):
    """Summed speculation/sync counters across the run's players."""
    metrics = [p.metrics for p in result.players]
    return {
        "spec_predictions": sum(m.spec_predictions for m in metrics),
        "spec_prefetches": sum(m.spec_prefetches for m in metrics),
        "spec_confirms": sum(m.spec_confirms for m in metrics),
        "spec_rollbacks": sum(m.spec_rollbacks for m in metrics),
        "spec_expired": sum(m.spec_expired for m in metrics),
        "spec_mispredictions": sum(m.spec_mispredictions for m in metrics),
        "desync_alarms": sum(m.desync_alarms for m in metrics),
        "resyncs": sum(m.resyncs for m in metrics),
    }


def run_benchmark(smoke=False):
    """Baseline-vs-predict per genre, plus the corruption-storm leg."""
    duration_s = SMOKE_DURATION_S if smoke else DURATION_S
    corrupt_spec = SMOKE_CORRUPT_FAULTS if smoke else CORRUPT_FAULTS
    genres = {}
    clean_alarms = clean_resyncs = 0
    for game in GAMES:
        world = load_game(game)
        artifacts = prepare_artifacts(
            world, SessionConfig(duration_s=duration_s, seed=SEED)
        )
        base = _run(world, artifacts, duration_s)
        spec = _run(world, artifacts, duration_s,
                    predict=PredictConfig(), sync=SyncConfig())
        totals = _totals(spec)
        base_hit = base.mean_cache_hit_ratio
        spec_hit = spec.mean_cache_hit_ratio
        clean_alarms += totals["desync_alarms"]
        clean_resyncs += totals["resyncs"]
        genres[game] = {
            "genre": world.spec.genre,
            "base_hit_ratio": base_hit,
            "predict_hit_ratio": spec_hit,
            "hit_gain": spec_hit - base_hit,
            "improved": spec_hit > base_hit,
            "base_fps": base.mean_fps,
            "predict_fps": spec.mean_fps,
            **totals,
        }

    racing_world = load_game(GAMES[0])
    racing_artifacts = prepare_artifacts(
        racing_world, SessionConfig(duration_s=duration_s, seed=SEED)
    )
    corrupt = _run(
        racing_world, racing_artifacts, duration_s,
        predict=PredictConfig(), sync=SyncConfig(),
        faults=FaultSchedule.parse(corrupt_spec),
    )
    corrupt_totals = _totals(corrupt)
    improved = sum(1 for g in genres.values() if g["improved"])
    return {
        "smoke": smoke,
        "duration_s": duration_s,
        "genres": genres,
        "improvement": {
            "genres_improved": improved,
            "mean_hit_gain": sum(g["hit_gain"] for g in genres.values())
            / len(genres),
        },
        "clean": {
            "desync_alarms": clean_alarms,
            "resyncs": clean_resyncs,
        },
        "corrupt": {
            "faults": corrupt_spec,
            "fps": corrupt.mean_fps,
            "frames": sum(len(p.records) for p in corrupt.players),
            **corrupt_totals,
        },
        "_corrupt_result": corrupt,
    }


def _acceptance(m):
    """Named gates; safety and false-alarm gates never relax in smoke."""
    genres = m["genres"]
    corrupt = m["corrupt"]
    return {
        "hit_ratio_improves_on_majority": (
            m["improvement"]["genres_improved"] >= 2
        ),
        "speculation_active_every_genre": all(
            g["spec_prefetches"] > 0 and g["spec_confirms"] > 0
            for g in genres.values()
        ),
        "clean_zero_false_alarms": (
            m["clean"]["desync_alarms"] == 0 and m["clean"]["resyncs"] == 0
        ),
        "predict_full_rate": all(
            g["predict_fps"] >= g["base_fps"] - FPS_TOLERANCE
            for g in genres.values()
        ),
        "corrupt_rollbacks_detected": corrupt["spec_rollbacks"] >= 1,
        "corrupt_run_recovers": (
            corrupt["fps"] >= genres[GAMES[0]]["base_fps"] - FPS_TOLERANCE
            and corrupt["desync_alarms"] == 0
        ),
    }


def _record(m, checks):
    payload = {
        "benchmark": "prediction",
        "seed": SEED,
        "players": PLAYERS,
        **{k: v for k, v in m.items() if not k.startswith("_")},
        "acceptance": checks,
        "cost": run_cost(),
    }
    write_bench("BENCH_prediction.json", payload)
    rows = [
        (
            game,
            g["genre"],
            f"{100 * g['base_hit_ratio']:.1f}%",
            f"{100 * g['predict_hit_ratio']:.1f}%",
            f"{100 * g['hit_gain']:+.1f}pp",
            g["spec_prefetches"],
            g["spec_confirms"],
        )
        for game, g in m["genres"].items()
    ]
    print("\n" + table(
        "BENCH_prediction",
        ("game", "genre", "base hit", "predict hit", "gain",
         "prefetches", "confirms"),
        rows,
        notes=f"{PLAYERS} players, {m['duration_s']:g}s, seed {SEED}; "
        f"{m['improvement']['genres_improved']}/{len(m['genres'])} genres "
        f"improved; clean alarms {m['clean']['desync_alarms']}; corrupt "
        f"storm '{m['corrupt']['faults']}': "
        f"{m['corrupt']['spec_rollbacks']} rollbacks at "
        f"{fmt(m['corrupt']['fps'], 1)} fps",
    ))
    return payload


main, test_prediction_effectiveness = gated_bench(
    run_benchmark, _acceptance, _record, group="predict"
)


if __name__ == "__main__":
    sys.exit(main())

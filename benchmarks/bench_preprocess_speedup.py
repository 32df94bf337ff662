"""E-P1 — offline preprocessing speedup: what the disk cache saves.

The workload replays what the benchmark suite actually does to the offline
stage.  One full-fidelity study of a game runs several system variants
(Coterie, Coterie-w/o-cache, the cache-version ablations of Table 5) over
the *same* trajectories, and each variant builds a fresh in-memory
:class:`PanoramaStore` — so without persistence the identical far-BE
panorama demand is re-rendered from scratch ``R`` times per study.

Three legs over the same demand stream (one racing drive, ``R`` replays),
all on the one lazy path (``PanoramaStore.frame_for``):

* **serial** — no ``cache_dir``: every replay renders + encodes its own
  panoramas, nothing persists;
* **cached** — ``cache_dir`` on an empty directory: the first replay
  renders each panorama once and writes it to the content-addressed disk
  store, every later replay reads it back (dedup);
* **warm** — the cached leg rerun on the populated directory: nothing is
  rendered at all (persistence).

Wall clocks, speedups, and per-leg ``perf.report()`` profiles land in
``benchmarks/results/BENCH_preprocess.json``.

Run standalone with ``python benchmarks/bench_preprocess_speedup.py``
(add ``--smoke`` for the CI quick mode: fewer demand points and replays,
relaxed speedup gates — byte-identity across legs never relaxes) or
under pytest-benchmark via ``pytest benchmarks/bench_preprocess_speedup.py``.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from harness import fmt, gated_bench, run_cost, table, write_bench

from repro import perf
from repro.codec import FrameCodec
from repro.core.preprocess import PanoramaStore, preprocess_game
from repro.render import RenderCostModel
from repro.render.rasterizer import RenderConfig
from repro.systems.base import SessionConfig
from repro.world import load_game

GAME = "racing"  # outdoor (Table 3's headline trio)
SCALE = 0.15
CONFIG = RenderConfig(width=64, height=32)
SIZE_SAMPLES = 2
SEED = 0

# Per mode: system variants sharing one demand stream (Table 5 runs 5+),
# unique far-BE grid points in one drive, and the minimum cached / warm
# speedups over serial.  With R replays dedup alone caps the cached leg
# below R-fold, so the 2-replay smoke run only has to beat serial clearly.
MODES = {
    False: dict(replays=4, demand_points=72, min_cached=2.0, min_warm=5.0),
    True: dict(replays=2, demand_points=48, min_cached=1.2, min_warm=2.0),
}


def _demand_stream(world, demand_points):
    """Grid points a drive along the racing track requests far BE for."""
    seen = []
    for index in range(demand_points * 3):
        arc = index * world.track.length() / (demand_points * 3)
        snapped = world.grid.snap(world.track.point_at(arc))
        if snapped not in seen:
            seen.append(snapped)
        if len(seen) == demand_points:
            break
    return seen


def _leg(world, codec, demand, cache_dir, replays):
    """Preprocess, then serve ``replays`` variants' far-BE demand, each
    from a fresh panorama store; returns the leg's timing record."""
    perf.reset()
    start = time.perf_counter()
    artifacts = preprocess_game(
        world,
        RenderCostModel(SessionConfig().device),
        CONFIG,
        codec,
        seed=SEED,
        size_samples=SIZE_SAMPLES,
        cache_dir=cache_dir,
    )
    renders = 0
    bytes_served = 0
    for _ in range(replays):
        store = PanoramaStore(
            world,
            CONFIG,
            codec,
            cutoff_map=artifacts.cutoff_map,
            eye_height=world.spec.player.eye_height,
            disk_cache=artifacts.disk_cache,
        )
        bytes_served += sum(store.frame_for(gp).wire_bytes for gp in demand)
        renders += store.renders
    elapsed = time.perf_counter() - start
    return {
        "wall_s": round(elapsed, 3),
        "renders": renders,
        "bytes_served": bytes_served,
        "stages": {
            name: round(total, 3) for name, total in perf.stage_names().items()
        },
        "profile": perf.report(),
    }


def run_legs(smoke: bool = False):
    """Run the three legs; returns the measurement record."""
    mode = MODES[smoke]
    world = load_game(GAME, scale=SCALE)
    codec = FrameCodec()
    demand = _demand_stream(world, mode["demand_points"])
    with tempfile.TemporaryDirectory() as cache_root:
        cache_dir = str(Path(cache_root) / "panoramas")
        legs = {
            "serial": _leg(world, codec, demand, None, mode["replays"]),
            "cached": _leg(world, codec, demand, cache_dir, mode["replays"]),
            "warm": _leg(world, codec, demand, cache_dir, mode["replays"]),
        }
    serial_s = legs["serial"]["wall_s"]
    return {
        "smoke": smoke,
        "replays": mode["replays"],
        "demand_points": len(demand),
        "legs": legs,
        "speedup": {
            name: round(serial_s / legs[name]["wall_s"], 2)
            for name in ("cached", "warm")
        },
    }


def _acceptance(m):
    mode = MODES[m["smoke"]]
    legs, speedup = m["legs"], m["speedup"]
    return {
        # Same demand served in every leg — byte-identical panoramas.
        "bytes_identical_across_legs":
            len({leg["bytes_served"] for leg in legs.values()}) == 1,
        "cached_renders_each_point_once":
            legs["cached"]["renders"] == m["demand_points"],
        "warm_renders_nothing": legs["warm"]["renders"] == 0,
        f"cached_speedup_at_least_{mode['min_cached']}x":
            speedup["cached"] >= mode["min_cached"],
        f"warm_speedup_at_least_{mode['min_warm']}x":
            speedup["warm"] >= mode["min_warm"],
    }


def _record(m, checks):
    payload = {
        "benchmark": "preprocess_speedup",
        "game": GAME,
        "scale": SCALE,
        "render": [CONFIG.width, CONFIG.height],
        **m,
        "acceptance": checks,
        "cost": run_cost(),
    }
    write_bench("BENCH_preprocess.json", payload)
    rows = [
        (name, fmt(leg["wall_s"], 2), leg["renders"],
         fmt(m["speedup"].get(name, 1.0), 2) + "x")
        for name, leg in m["legs"].items()
    ]
    print("\n" + table(
        "BENCH_preprocess",
        ("leg", "wall s", "panorama renders", "speedup"),
        rows,
        notes=f"{GAME} @ scale {SCALE}, {m['demand_points']} demand points x "
        f"{m['replays']} replays",
    ))
    return payload


main, test_preprocess_speedup = gated_bench(
    run_legs, _acceptance, _record, group="preprocess_speedup"
)


if __name__ == "__main__":
    sys.exit(main())

"""E-K1 — frame-pipeline kernel speedup: scalar vs vector.

The offline stage (§6) is raster-bound: every far-BE panorama, size-model
calibration frame, and dist-thresh probe walks the per-object scanline
loop.  This benchmark runs the same end-to-end preprocessing workload —
``preprocess_game`` plus a far-BE panorama demand stream plus lazy
per-leaf dist-thresh searches — once per kernel mode over the default
game set, and reports:

* **wall clocks and speedups** — end-to-end per mode, plus per-stage
  (raster / encode / dist_thresh) attribution from ``perf.report()``;
* **bit-identity** — a running SHA-256 over every encoded panorama's
  bytes and every dist-thresh value must be *equal across both modes*
  (the kernels are drop-in replacements, not approximations).

Results land in ``benchmarks/results/BENCH_kernels.json``.  Run
standalone with ``python benchmarks/bench_kernels.py`` (add ``--smoke``
for the CI quick mode: one game, smaller demand, relaxed speedup gate —
the bit-identity gate never relaxes) or under pytest-benchmark via
``pytest benchmarks/bench_kernels.py``.
"""

from __future__ import annotations

import hashlib
import struct
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np

from harness import fmt, run_cost, table, write_bench

from repro import perf
from repro.codec import FrameCodec
from repro.core.preprocess import PanoramaStore, preprocess_game
from repro.geometry import Vec2
from repro.render import KERNEL_MODES, RenderCostModel
from repro.render.rasterizer import RenderConfig
from repro.systems.base import SessionConfig
from repro.world import load_game

SEED = 0
WIDTH, HEIGHT = 64, 32
SIZE_SAMPLES = 2

# The default game set: Table 3's headline trio, scaled so one mode's leg
# stays in tens-of-seconds territory.  (game, scale, demand, thresh points)
GAME_SET = (
    ("racing", 0.15, 40, 2),
    ("viking", 0.12, 24, 2),
    ("cts", 0.15, 24, 2),
)
SMOKE_GAME_SET = (("racing", 0.15, 10, 1),)

# Minimum end-to-end vector speedup over scalar per mode.  The full
# gate is the ISSUE's acceptance bar; the smoke gate only catches a
# vectorization regression outright (CI runners are noisy and the smoke
# workload amortizes less fixed cost).
GATES = {False: 2.0, True: 1.2}

# Counters worth carrying into the artifact verbatim.
COUNTER_NAMES = (
    "raster.vector.units",
    "raster.vector.buckets",
    "panorama.renders",
    "dist_thresh.probes",
)


def _demand(world, count):
    """A deterministic panorama demand stream for any game.

    Low-discrepancy points over the scene bounds, snapped to the prefetch
    grid and deduplicated — game-agnostic (not every game has a track).
    """
    bounds = world.scene.bounds
    seen = []
    index = 0
    while len(seen) < count and index < count * 8:
        index += 1
        tx = (index * 0.6180339887498949) % 1.0  # golden-ratio sequence
        ty = (index * 0.7548776662466927) % 1.0  # plastic-number sequence
        snapped = world.grid.snap(Vec2(
            bounds.x_min + tx * (bounds.x_max - bounds.x_min),
            bounds.y_min + ty * (bounds.y_max - bounds.y_min),
        ))
        if snapped not in seen:
            seen.append(snapped)
    return seen


def _game_leg(game, scale, demand_n, thresh_n, mode, digest):
    """One game's preprocessing workload under one kernel mode."""
    world = load_game(game, scale=scale)
    config = RenderConfig(width=WIDTH, height=HEIGHT, kernels=mode)
    codec = FrameCodec()
    artifacts = preprocess_game(
        world,
        RenderCostModel(SessionConfig().device),
        config,
        codec,
        seed=SEED,
        size_samples=SIZE_SAMPLES,
    )
    store = PanoramaStore(
        world,
        config,
        codec,
        cutoff_map=artifacts.cutoff_map,
        kind="far",
        eye_height=world.spec.player.eye_height,
    )
    for grid_point in _demand(world, demand_n):
        digest.update(store.frame_for(grid_point).encoded.data)
    rng = np.random.default_rng(SEED)
    for position in world.scene.bounds.sample(rng, thresh_n):
        thresh = artifacts.dist_thresh_map.threshold_for(position)
        digest.update(struct.pack("<d", thresh))


def _mode_leg(mode, game_set):
    """Run the whole game set under one kernel mode; returns its record."""
    perf.reset()
    digest = hashlib.sha256()
    start = time.perf_counter()
    for game, scale, demand_n, thresh_n in game_set:
        _game_leg(game, scale, demand_n, thresh_n, mode, digest)
    elapsed = time.perf_counter() - start
    counters = {
        name: perf.counter(name)
        for name in COUNTER_NAMES
        if perf.counter(name)
    }
    return {
        "wall_s": round(elapsed, 3),
        "digest": digest.hexdigest(),
        "stages": {
            name: round(total, 3) for name, total in perf.stage_names().items()
        },
        "counters": counters,
        "profile": perf.report(),
    }


def run_modes(smoke: bool = False):
    """Both kernel modes over the game set; returns (legs, speedups).

    Asserts the bit-identity invariant: every mode must produce the same
    encoded panorama bytes and dist-thresh values.
    """
    game_set = SMOKE_GAME_SET if smoke else GAME_SET
    legs = {mode: _mode_leg(mode, game_set) for mode in KERNEL_MODES}
    digests = {leg["digest"] for leg in legs.values()}
    assert len(digests) == 1, f"kernel modes diverged: {digests}"
    scalar, vector = legs["scalar"], legs["vector"]
    speedups = {"vector": round(scalar["wall_s"] / vector["wall_s"], 2)}
    stage_speedups = {}
    for stage, scalar_s in scalar["stages"].items():
        vector_s = vector["stages"].get(stage)
        if vector_s and scalar_s:
            stage_speedups[stage] = round(scalar_s / vector_s, 2)
    vector["stage_speedups"] = stage_speedups
    return legs, speedups


def _record(legs, speedups, smoke=False):
    game_set = SMOKE_GAME_SET if smoke else GAME_SET
    payload = {
        "benchmark": "kernels",
        "games": [
            {"game": g, "scale": s, "demand": d, "thresh_points": t}
            for g, s, d, t in game_set
        ],
        "render": [WIDTH, HEIGHT],
        "seed": SEED,
        "smoke": smoke,
        "bit_identical": True,  # run_modes asserts it before we get here
        "legs": legs,
        "speedup": speedups,
        "cost": run_cost(),
    }
    write_bench("BENCH_kernels.json", payload)
    rows = []
    for mode, leg in legs.items():
        rows.append((
            mode,
            fmt(leg["wall_s"], 2),
            fmt(leg["stages"].get("raster", 0.0), 2),
            fmt(speedups.get(mode, 1.0), 2) + "x",
        ))
    print("\n" + table(
        "BENCH_kernels",
        ("mode", "wall s", "raster s", "speedup"),
        rows,
        notes=f"{len(game_set)} game(s) @ {WIDTH}x{HEIGHT}; "
        "identical output digests across modes",
    ))
    return payload


def main(argv=None) -> int:
    """Standalone entry point: run, record, and verify the acceptance bar."""
    smoke = "--smoke" in (sys.argv[1:] if argv is None else argv)
    legs, speedups = run_modes(smoke=smoke)
    _record(legs, speedups, smoke=smoke)
    gate = GATES[smoke]
    print(f"\nvector speedup: {speedups['vector']}x")
    ok = speedups["vector"] >= gate
    print("acceptance:", "PASS" if ok else f"FAIL (>={gate}x vector)")
    return 0 if ok else 1


try:
    import pytest
except ImportError:  # standalone run without pytest installed
    pytest = None

if pytest is not None:

    @pytest.mark.benchmark(group="kernels")
    def test_kernel_speedup(benchmark):
        """vector >= 2x over scalar end-to-end, bit-identical."""
        from harness import once

        legs, speedups = once(benchmark, run_modes)
        _record(legs, speedups)
        assert speedups["vector"] >= GATES[False]


if __name__ == "__main__":
    sys.exit(main())

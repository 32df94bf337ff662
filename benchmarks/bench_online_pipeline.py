"""E-K2 — online frame-loop throughput: scalar vs batched kernels.

The online hot path (decode → cache lookup → SSIM → merge → display) runs
once per player per display interval.  This benchmark replays the same
multi-player tick schedule — real trajectory generators over the default
game set, real encoded far-BE panoramas, prerendered near-BE/FI layers —
through :class:`repro.core.online.OnlineFrameLoop` under each kernel
mode and reports:

* **frames/sec and speedups** — online frames processed per wall-clock
  second, per mode;
* **bit-identity** — one SHA-256 over every displayed frame's bytes,
  every SSIM value, and every frame interval must be *equal across
  both modes*, and the session metrics (fetches, cache hits, SSIM
  values) must match exactly;
* **batching counters** — players per batch and stacked decode/SSIM job
  counts.

Mode mapping: ``scalar`` is the float64 one-player-at-a-time oracle;
``vector`` runs the stacked float32 kernels.

Results land in ``benchmarks/results/BENCH_online.json``.  Run standalone
with ``python benchmarks/bench_online_pipeline.py`` (add ``--smoke`` for
the CI quick mode: one game, fewer ticks, relaxed speedup gate — the
bit-identity gate never relaxes) or via ``pytest``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from harness import fmt, report, run_cost, write_bench

from repro import perf
from repro.codec import FrameCodec
from repro.core.online import OnlineFrameLoop, PlayerFrameInput
from repro.core.preprocess import PanoramaStore, preprocess_game
from repro.render import KERNEL_MODES, RenderCostModel
from repro.render.rasterizer import RenderConfig
from repro.render.splitter import eye_at, reference_frame, render_fi, render_near_be
from repro.systems.base import SessionConfig
from repro.trace import avatars_at, generate_party
from repro.world import load_game

SEED = 0
WIDTH, HEIGHT = 32, 16
N_PLAYERS = 6
SSIM_STRIDE = 1
SSIM_BATCH_TARGET = 54
# Panorama granularity: viewpoints snap to ~3 m cells, so a moving player
# reuses each far-BE frame for a run of ticks (the paper's ~80 % cache hit
# regime) and decodes only when crossing into a new cell.
PANORAMA_CELL_M = 3.0

# The default game set: Table 3's headline trio. (game, scale, ticks)
GAME_SET = (
    ("racing", 0.15, 110),
    ("viking", 0.12, 80),
    ("cts", 0.15, 80),
)
SMOKE_GAME_SET = (("racing", 0.15, 36),)

# Minimum frames/sec speedup of the batched mode ("vector": stacked
# float32 kernels) over the scalar online path.  The full gate is the
# acceptance bar; the smoke gate only catches a batching regression
# outright.
GATES = {False: 1.5, True: 1.1}

COUNTER_NAMES = (
    "online.batch_ticks",
    "online.players_per_batch",
    "decode.batched_frames",
    "decode.batches",
    "ssim.batched_pairs",
)


def build_inputs(game_set=GAME_SET, n_players=N_PLAYERS):
    """The shared tick schedule: one list of ticks across all games.

    All frame preparation (panorama render+encode, near-BE/FI layers,
    all-local references) happens here, outside the timed legs — the legs
    measure only the online loop.  Every mode replays the identical
    schedule.
    """
    codec = FrameCodec()
    config = RenderConfig(width=WIDTH, height=HEIGHT)
    ticks = []
    for game, scale, n_ticks in game_set:
        world = load_game(game, scale=scale)
        artifacts = preprocess_game(
            world,
            RenderCostModel(SessionConfig().device),
            config,
            codec,
            seed=SEED,
            size_samples=2,
        )
        store = PanoramaStore(
            world,
            config,
            codec,
            cutoff_map=artifacts.cutoff_map,
            kind="far",
            eye_height=world.spec.player.eye_height,
        )
        duration_s = n_ticks / 60.0 + 0.5
        party = generate_party(world, n_players, duration_s, seed=SEED)
        eye_height = world.spec.player.eye_height
        grid = world.grid
        cell = max(1, int(round(PANORAMA_CELL_M / grid.pitch)))
        for tick_index in range(n_ticks):
            positions = [
                party[p][min(tick_index, len(party[p]) - 1)].position
                for p in range(n_players)
            ]
            tick = []
            for player in range(n_players):
                i, j = grid.snap(positions[player])
                grid_point = (
                    min(int(round(i / cell)) * cell, grid.nx - 1),
                    min(int(round(j / cell)) * cell, grid.ny - 1),
                )
                snapped = world.grid.to_world(grid_point)
                leaf, cutoff = artifacts.cutoff_map.leaf_for(snapped)
                near_ids = world.scene.near_object_ids(
                    snapped, cutoff, min_radius=0.05 * cutoff
                )
                stored = store.frame_for(grid_point)
                eye = eye_at(world.scene, positions[player], eye_height)
                avatars = avatars_at(world, positions, exclude_player=player)
                tick.append(
                    PlayerFrameInput(
                        grid_point=grid_point,
                        position=snapped,
                        leaf=leaf,
                        near_ids=near_ids,
                        dist_thresh=artifacts.dist_thresh_map.threshold_for(
                            snapped
                        ),
                        encoded=stored.encoded,
                        wire_bytes=stored.wire_bytes,
                        near_layer=render_near_be(
                            world.scene, eye, config, cutoff
                        ),
                        fi_layer=render_fi(avatars, eye, config),
                        reference=reference_frame(
                            world.scene, eye, config, avatars=avatars
                        ),
                    )
                )
            ticks.append(tick)
    return ticks


def _mode_leg(loop, mode, repeats=2):
    """Timed passes of the online loop under one kernel mode.

    Each leg runs ``repeats`` times and keeps the best wall time, so the
    first mode doesn't absorb process warmup that later modes skip;
    counters and results come from the final pass.
    """
    batched = mode != "scalar"
    elapsed = None
    for _ in range(repeats):
        perf.reset()
        start = time.perf_counter()
        result = loop.run(batched=batched)
        wall = time.perf_counter() - start
        elapsed = wall if elapsed is None else min(elapsed, wall)
    counters = {
        name: perf.counter(name) for name in COUNTER_NAMES if perf.counter(name)
    }
    record = {
        "wall_s": round(elapsed, 3),
        "fps": round(result.frames / elapsed, 1),
        "frames": result.frames,
        "fetches": result.fetches,
        "cache_hits": result.cache_hits,
        "mean_ssim": round(
            sum(result.ssim_values) / max(1, len(result.ssim_values)), 6
        ),
        "digest": result.digest,
        "counters": counters,
    }
    return record, result


def run_modes(smoke: bool = False):
    """Both kernel modes over the shared schedule; returns (legs, speedups).

    Asserts the bit-identity invariant: every mode must produce the same
    displayed bytes, SSIM values, intervals, and session metrics.
    """
    game_set = SMOKE_GAME_SET if smoke else GAME_SET
    loop = OnlineFrameLoop(
        ticks=build_inputs(game_set),
        ssim_stride=SSIM_STRIDE,
        ssim_batch_target=SSIM_BATCH_TARGET,
    )
    legs = {}
    metrics = {}
    for mode in KERNEL_MODES:
        legs[mode], result = _mode_leg(loop, mode)
        metrics[mode] = result.metrics()
    digests = {leg["digest"] for leg in legs.values()}
    assert len(digests) == 1, f"kernel modes diverged: {digests}"
    scalar_metrics = metrics["scalar"]
    for mode in KERNEL_MODES:
        assert metrics[mode] == scalar_metrics, f"{mode} metrics diverged"
    speedups = {
        "vector": round(legs["scalar"]["wall_s"] / legs["vector"]["wall_s"], 2)
    }
    return legs, speedups


def _record(legs, speedups, smoke=False):
    game_set = SMOKE_GAME_SET if smoke else GAME_SET
    payload = {
        "benchmark": "online_pipeline",
        "games": [
            {"game": g, "scale": s, "ticks": t} for g, s, t in game_set
        ],
        "render": [WIDTH, HEIGHT],
        "players": N_PLAYERS,
        "ssim_stride": SSIM_STRIDE,
        "ssim_batch_target": SSIM_BATCH_TARGET,
        "seed": SEED,
        "smoke": smoke,
        "bit_identical": True,  # run_modes asserts it before we get here
        "legs": legs,
        "speedup": speedups,
        "cost": run_cost(),
    }
    write_bench("BENCH_online.json", payload)
    rows = [
        (
            mode,
            fmt(leg["wall_s"], 2),
            fmt(leg["fps"], 0),
            fmt(speedups.get(mode, 1.0), 2) + "x",
        )
        for mode, leg in legs.items()
    ]
    report(
        "BENCH_online_table",
        ("mode", "wall s", "frames/s", "speedup"),
        rows,
        notes=f"{len(game_set)} game(s) @ {WIDTH}x{HEIGHT}, "
        f"{N_PLAYERS} players; identical digests and metrics across modes",
    )
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

    @pytest.mark.benchmark(group="online")
    def test_online_speedup(benchmark):
        """Batched float32 online loop >= 1.5x over scalar, bit-identical."""
        from harness import once

        legs, speedups = once(benchmark, run_modes)
        _record(legs, speedups)
        assert speedups["vector"] >= GATES[False]


if __name__ == "__main__":
    sys.exit(main())

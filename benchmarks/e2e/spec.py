"""Names, units, directions and bounds of every metric the benchmark reports.

This module is the single declaration of the metric surface: ``run.py``
prints and emits exactly these names, ``compare.py`` judges with these
bounds, and ``tests/test_spec.py`` pins ``BENCHMARK.json`` (a static copy
the driver reads) to it.

Two clocks are kept apart throughout: *host* metrics measure the
simulator (wall seconds, RSS of this process), *sim* metrics measure the
modelled Coterie design (simulated FPS, latency, hit ratio, traffic) and
repeat exactly for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

WORKLOADS: Dict[str, str] = {
    "racing_cold": (
        "default racing invocation: track-masked 4 km world, so reachability sampling "
        "in the cutoff map and scene generation are ~75% of wall; frame loop is the minority"
    ),
    "viking_systems": (
        "setup is ~1 s, so the Coterie frame loop (scene scans) dominates; extra phase "
        "times the three other client loops (Fig. 11's 4-player column)"
    ),
    "cts_fullrender": (
        "render_frames=True: the only workload in the pixel path (rasterizer, codec, "
        "SSIM batches, merger) and the memory-heavy one"
    ),
    "fleet_full": (
        "run_fleet at full fidelity: many short 2-4 player sessions on two games share "
        "one artifact set, so per-session set-up cost shows"
    ),
}


#: ``gate`` is the one measured size of every workload; ``smoke`` is the
#: self-tests' hook (seconds per workload, numbers not comparable).
SCALES: Tuple[str, ...] = ("gate", "smoke")


@dataclass(frozen=True)
class Metric:
    """One reported number.

    ``bound`` is the share of the parent's median by which the metric may
    worsen across the driver's differently-seeded runs (``None``: not in
    the driver's ``end_to_end`` list).  ``clock`` selects the same-seed
    rule of ``compare.py`` and of the reference check: ``host`` metrics
    may worsen by :data:`HOST_BOUND`, ``sim`` metrics must be equal to
    :data:`SIM_TOLERANCE` or better.
    """

    name: str
    unit: str
    better: str  # "lower" | "higher"
    clock: str  # "host" | "sim"
    bound: Optional[float] = None
    workloads: Optional[Tuple[str, ...]] = None  # None: defined on all four


#: Same-seed regression bound for host-time metrics (compare.py).
HOST_BOUND = 0.10
#: ``setup_s`` may also move by this many seconds before it counts.
SETUP_ABS_S = 0.15
#: Same-seed equality tolerance for simulated metrics (compare.py, reference.json).
SIM_TOLERANCE = 1e-9

_FLEET = ("fleet_full",)
_VIKING = ("viking_systems",)

#: The 14 end-to-end metrics, all measured by the untraced run.
#:
#: The six with a bound form BENCHMARK.json's ``end_to_end`` list, which
#: the driver judges across runs with *different* seeds: they exist on
#: every workload, are never 0 and never constant, and each bound is three
#: times the widest quartile spread any workload showed over ten seeds
#: (README, "Measured steadiness"), capped at the driver's 25 % -- the cap
#: binds for ``peak_rss_mb`` and ``warm_player_s_per_wall_s``, whose
#: spread on ``cts_fullrender`` is 7-11 %, and ``setup_s`` takes the
#: largest bound as the driver's contract asks.
#:
#: The other eight are workload-specific, or constant across seeds on
#: some workload (racing displays exactly 60 FPS), or spread by ~10 % from
#: seed to seed (traffic per player follows the miss count of a few short
#: sessions), none of which that list allows; they ride in ``per_layer``.
#: For the driver they are gated, like every ``sim`` metric, by run.py's
#: check against ``reference.json`` on the seeds recorded there.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host", 0.25),
    Metric("cold_wall_s", "s", "lower", "host", 0.20),
    Metric("warm_player_s_per_wall_s", "player-s/s", "higher", "host", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "host", 0.25),
    Metric("sim_m2p_ms", "ms", "lower", "sim", 0.10),
    Metric("sim_hit_ratio", "ratio", "higher", "sim", 0.10),
    Metric("sim_be_mbps_per_player", "Mbps", "lower", "sim"),
    Metric("sim_fps", "1/s", "higher", "sim"),
    Metric("sim_p99_inter_frame_ms", "ms", "lower", "sim"),
    Metric("baseline_player_s_per_wall_s", "player-s/s", "higher", "host", workloads=_VIKING),
    Metric("baseline_sim_fps", "1/s", "higher", "sim", workloads=_VIKING),
    Metric("fleet_sessions_per_sim_s", "1/s", "higher", "sim", workloads=_FLEET),
    Metric("fleet_join_p99_ms", "ms", "lower", "sim", workloads=_FLEET),
    Metric("fleet_dedup_ratio", "ratio", "higher", "sim", workloads=_FLEET),
)

GATED: Tuple[Metric, ...] = tuple(m for m in END_TO_END if m.bound is not None)
UNGATED: Tuple[Metric, ...] = tuple(m for m in END_TO_END if m.bound is None)

#: Paper figures printed beside the simulated values (shape validation
#: only: the difference is reported, never gated).
PAPER_HIT_RATIO = {"racing": 0.823, "viking": 0.808, "cts": 0.884}
PAPER_FPS = 60.0
PAPER_MULTI_FURION_FPS = 24.0

_S, _N = "s", "count"

#: Per-layer metrics of the traced run: (name, unit, better).  ``.s`` is
#: inclusive host seconds, ``.self_s`` excludes wrapped children,
#: ``.calls`` counts outermost calls.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("world.build_game.s", _S, "lower"),
    ("world.generate_scene.s", _S, "lower"),
    ("world.reachability.calls", _N, "lower"),
    ("world.reachability.s", _S, "lower"),
    ("world.scene_query.calls", _N, "lower"),
    ("world.scene_query.s", _S, "lower"),
    ("trace.generate_party.s", _S, "lower"),
    ("core.preprocess.s", _S, "lower"),
    ("core.cutoff.s", _S, "lower"),
    ("core.cutoff.samples", _N, "lower"),
    ("core.cutoff.leaves", _N, "higher"),
    ("core.size_model.s", _S, "lower"),
    ("core.dist_thresh.s", _S, "lower"),
    ("core.dist_thresh.warm_s", _S, "lower"),
    ("core.dist_thresh.leaves", _N, "lower"),
    ("core.dist_thresh.probes", _N, "lower"),
    ("core.prefetch.plan.calls", _N, "lower"),
    ("core.prefetch.plan.self_s", _S, "lower"),
    ("core.cache.lookup.calls", _N, "lower"),
    ("core.cache.lookup.s", _S, "lower"),
    ("core.cache.insert.calls", _N, "lower"),
    ("core.cache.evictions", _N, "lower"),
    ("core.cache.hit_ratio", "ratio", "higher"),
    ("core.store.frame_for.calls", _N, "lower"),
    ("core.store.frame_for.s", _S, "lower"),
    ("core.store.renders", _N, "lower"),
    ("core.merger.s", _S, "lower"),
    ("core.ssim_queue.flush.s", _S, "lower"),
    ("render.cost_model.calls", _N, "lower"),
    ("render.cost_model.self_s", _S, "lower"),
    ("render.raster.calls", _N, "lower"),
    ("render.raster.s", _S, "lower"),
    ("render.raster.units", _N, "lower"),
    ("codec.encode.calls", _N, "lower"),
    ("codec.encode.s", _S, "lower"),
    ("codec.decode.calls", _N, "lower"),
    ("codec.decode.s", _S, "lower"),
    ("codec.encoded_bytes", "B", "lower"),
    ("similarity.ssim.calls", _N, "lower"),
    ("similarity.ssim.s", _S, "lower"),
    ("sim.scheduled", _N, "lower"),
    ("sim.run.self_s", _S, "lower"),
    ("sim.events_per_wall_s", "1/s", "higher"),
    ("net.link.transfers", _N, "lower"),
    ("net.link.bytes", "B", "lower"),
    ("net.link.utilization", "ratio", "lower"),
    ("net.link.self_s", _S, "lower"),
    ("net.pun.ticks", _N, "lower"),
    ("systems.session_init.s", _S, "lower"),
    ("systems.loop_self_s", _S, "lower"),
    ("systems.finish.s", _S, "lower"),
    ("systems.multi_furion.s", _S, "lower"),
    ("systems.multi_furion.sim_fps", "1/s", "higher"),
    ("systems.multi_furion_cache.s", _S, "lower"),
    ("systems.multi_furion_cache.sim_fps", "1/s", "higher"),
    ("systems.thin_client.s", _S, "lower"),
    ("systems.thin_client.sim_fps", "1/s", "higher"),
    ("systems.mobile.s", _S, "lower"),
    ("systems.mobile.sim_fps", "1/s", "higher"),
    ("systems.paper_hit_err_pp", "pp", "lower"),
    ("systems.paper_fps_err", "1/s", "lower"),
    ("fleet.model.s", _S, "lower"),
    ("fleet.replay.s", _S, "lower"),
    ("fleet.demand.s", _S, "lower"),
    ("fleet.sessions_admitted", _N, "higher"),
    ("fleet.admission_retries", _N, "lower"),
    ("fleet.farm.renders", _N, "lower"),
    ("fleet.farm.batches", _N, "lower"),
    ("fleet.farm.wait_p99_ms", "ms", "lower"),
    ("fleet.store.lookups", _N, "lower"),
    ("bench.import_s", _S, "lower"),
    ("bench.unattributed_s", _S, "lower"),
    ("bench.spans", _N, "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _, _ in LAYERS)
UNITS: Dict[str, str] = {
    **{m.name: m.unit for m in END_TO_END},
    **{name: unit for name, unit, _ in LAYERS},
}


def benchmark_json(command, paths, run_seconds) -> dict:
    """The document BENCHMARK.json must equal (see tests/test_spec.py)."""
    return {
        "command": list(command),
        "paths": list(paths),
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in GATED
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in UNGATED
        ] + [{"name": n, "unit": u, "better": b} for n, u, b in LAYERS],
    }

"""One workload, once, in a fresh interpreter: set up, cold, warm, extra.

``run.py`` starts this script once per repetition so that ``load_game``'s
memo, ``prepare_artifacts``' cache, the ``repro.perf`` registry and RSS
all start cold.  The last line of standard output is one JSON object with
the phase walls, the end-to-end values, the operation tally and, when
``--trace 1``, the per-layer numbers; the span tree goes to
``--trace-out`` as Chrome trace JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

import spec


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _coterie_runs(ops) -> list:
    """The Coterie RunResults of one pass (fleet: the session replays)."""
    return [
        op.result for op in ops
        if op.error is None and op.name in ("coterie", "fleet_session")
    ]


def _fingerprint(op):
    """Everything the cold/warm twin of ``op`` must reproduce bit for bit."""
    if op.name == "fleet":
        return op.result.summary
    run = op.result
    return (
        run.be_mbps,
        run.fi_kbps,
        [(p.player_id, p.metrics, p.records, p.fetches) for p in run.players],
    )


def check_ops(cold, warm, extra, shape_checks: bool) -> List[str]:
    """One line per failed operation (an op fails at most once)."""
    failures: List[str] = []
    failed = set()

    def fail(phase: str, index: int, op, why: str) -> None:
        if (phase, index) not in failed:
            failed.add((phase, index))
            failures.append(f"{phase}[{index}] {op.name}: {why}")

    phases = (("cold", cold), ("warm", warm), ("extra", extra))
    for phase, ops in phases:
        for index, op in enumerate(ops):
            if op.error is not None:
                fail(phase, index, op, "raised\n" + op.error)
            elif op.name != "fleet" and (
                not op.result.players
                or any(p.metrics.frames == 0 for p in op.result.players)
            ):
                fail(phase, index, op, "a player displayed zero frames")
    if len(cold) != len(warm):
        fail("warm", 0, warm[0] if warm else cold[0],
             f"{len(warm)} operations, cold pass had {len(cold)}")
    for index, (a, b) in enumerate(zip(cold, warm)):
        if a.error is None and b.error is None and _fingerprint(a) != _fingerprint(b):
            fail("warm", index, b, "differs from its cold twin")
    if not shape_checks:
        return failures
    coterie = _coterie_runs(cold)
    for phase, ops in phases[:2]:
        for index, op in enumerate(ops):
            if op.error is not None or op.name == "fleet":
                continue
            if op.result.mean_fps < 55.0:
                fail(phase, index, op, f"sim_fps {op.result.mean_fps:.2f} < 55")
            hit = op.result.mean_cache_hit_ratio
            if hit is None or not 0.0 < hit < 1.0:
                fail(phase, index, op, f"hit ratio {hit} not in (0, 1)")
    if coterie:
        coterie_fps = _mean(run.mean_fps for run in coterie)
        for index, op in enumerate(extra):
            if op.error is None and op.result.mean_fps >= coterie_fps:
                fail("extra", index, op,
                     f"baseline FPS {op.result.mean_fps:.2f} not below Coterie's {coterie_fps:.2f}")
    return failures


def end_to_end(walls, cold, warm, extra, rss_mb: float) -> Dict[str, float]:
    """The end-to-end values this workload defines."""
    out = {
        "setup_s": walls["setup"],
        "cold_wall_s": walls["setup"] + walls["cold"],
        "warm_player_s_per_wall_s": sum(op.player_s for op in warm) / walls["warm"],
        "peak_rss_mb": rss_mb,
    }
    runs = _coterie_runs(cold)
    if runs:
        players = [p.metrics for run in runs for p in run.players]
        out["sim_fps"] = _mean(m.fps for m in players)
        out["sim_m2p_ms"] = _mean(m.responsiveness_ms for m in players)
        out["sim_p99_inter_frame_ms"] = _mean(m.p99_inter_frame_ms for m in players)
        out["sim_hit_ratio"] = _mean(m.cache_hit_ratio for m in players)
        out["sim_be_mbps_per_player"] = _mean(run.per_player_be_mbps() for run in runs)
    if extra:
        out["baseline_player_s_per_wall_s"] = sum(op.player_s for op in extra) / walls["extra"]
        furion = [op for op in extra if op.name == "multi_furion" and op.error is None]
        if furion:
            out["baseline_sim_fps"] = furion[0].result.mean_fps
    fleet = [op for op in cold if op.name == "fleet" and op.error is None]
    if fleet:
        summary = fleet[0].result.summary
        out["fleet_sessions_per_sim_s"] = summary.sessions_per_s
        out["fleet_join_p99_ms"] = summary.join_p99_ms
        out["fleet_dedup_ratio"] = summary.dedup_ratio
    return out


class Harvest:
    """Counts read off the objects the wrappers saw being constructed.

    Taken after every phase so the caches, stores and links (and the
    frames they hold) are released before the next phase starts.
    """

    def __init__(self) -> None:
        self.cache_hits = 0
        self.cache_lookups = 0
        self.cache_evictions = 0
        self.store_renders = 0
        self.link_bytes = 0.0

    def take(self, tracer, phase: str) -> None:
        collected, tracer.collected = tracer.collected, {}
        for cache in collected.get("caches", ()):
            self.cache_evictions += cache.stats.evictions
            if phase in ("cold", "warm"):
                self.cache_hits += cache.stats.hits
                self.cache_lookups += cache.stats.lookups
        self.store_renders += sum(s.memo_entries for s in collected.get("stores", ()))
        self.link_bytes += sum(l.total_bytes() for l in collected.get("links", ()))


def layer_metrics(tracer, harvest: Harvest, artifacts, cold, warm, extra,
                  sim: Dict[str, float], paper_hit: float, import_s: float) -> Dict[str, float]:
    """Every name in :data:`spec.LAYER_NAMES` except the overhead figure,
    which needs the untraced twin and is filled in by ``run.py``."""
    from repro import perf

    def calls(name):
        return tracer.total(name)[0]

    def incl(name, phase=None):
        return tracer.total(name, phase)[1]

    def self_s(name):
        return tracer.total(name)[2]

    out = {
        "world.build_game.s": incl("world.build_game"),
        "world.generate_scene.s": incl("world.generate_scene"),
        "world.reachability.calls": calls("world.reachability"),
        "world.reachability.s": incl("world.reachability"),
        "world.scene_query.calls": calls("world.scene_query"),
        "world.scene_query.s": incl("world.scene_query"),
        "trace.generate_party.s": incl("trace.generate_party"),
        "core.preprocess.s": incl("core.preprocess"),
        "core.cutoff.s": incl("core.cutoff"),
        "core.cutoff.samples": perf.counter("cutoff.samples"),
        "core.cutoff.leaves": sum(len(a.cutoff_map.leaf_radii()) for a in artifacts),
        "core.size_model.s": incl("core.size_model"),
        "core.dist_thresh.s": incl("core.dist_thresh"),
        "core.dist_thresh.warm_s": incl("core.dist_thresh", "warm"),
        "core.dist_thresh.leaves": sum(a.dist_thresh_map.computed_leaves for a in artifacts),
        "core.dist_thresh.probes": perf.counter("dist_thresh.probes"),
        "core.prefetch.plan.calls": calls("core.prefetch.plan"),
        "core.prefetch.plan.self_s": self_s("core.prefetch.plan"),
        "core.cache.lookup.calls": calls("core.cache.lookup"),
        "core.cache.lookup.s": incl("core.cache.lookup"),
        "core.cache.insert.calls": calls("core.cache.insert"),
        "core.cache.evictions": harvest.cache_evictions,
        "core.cache.hit_ratio": (
            harvest.cache_hits / harvest.cache_lookups if harvest.cache_lookups else 0.0
        ),
        "core.store.frame_for.calls": calls("core.store.frame_for"),
        "core.store.frame_for.s": incl("core.store.frame_for"),
        "core.store.renders": harvest.store_renders,
        "core.merger.s": incl("core.merger"),
        "core.ssim_queue.flush.s": incl("core.ssim_queue.flush"),
        "render.cost_model.calls": calls("render.cost_model"),
        "render.cost_model.self_s": self_s("render.cost_model"),
        "render.raster.calls": calls("render.raster"),
        "render.raster.s": incl("render.raster"),
        "render.raster.units": perf.counter("raster.vector.units"),
        "codec.encode.calls": calls("codec.encode"),
        "codec.encode.s": incl("codec.encode"),
        "codec.decode.calls": calls("codec.decode"),
        "codec.decode.s": incl("codec.decode"),
        "codec.encoded_bytes": tracer.counters.get("codec.encoded_bytes", 0),
        "similarity.ssim.calls": calls("similarity.ssim"),
        "similarity.ssim.s": incl("similarity.ssim"),
        "sim.scheduled": calls("sim.schedule"),
        "sim.run.self_s": self_s("sim.run"),
        "sim.events_per_wall_s": (
            calls("sim.schedule") / incl("sim.run") if incl("sim.run") else 0.0
        ),
        "net.link.transfers": calls("net.link.transfer"),
        "net.link.bytes": harvest.link_bytes,
        "net.link.utilization": _mean(
            [op.result.link_utilization for ops in (cold, warm, extra) for op in ops
             if op.error is None and op.name != "fleet"] or [0.0]
        ),
        "net.link.self_s": self_s("net.link") + self_s("net.link.transfer"),
        "net.pun.ticks": calls("net.pun.tick"),
        "systems.session_init.s": incl("systems.session_init"),
        "systems.loop_self_s": self_s("systems.run"),
        "systems.finish.s": incl("systems.finish"),
        "systems.paper_hit_err_pp": 100.0 * (sim.get("sim_hit_ratio", paper_hit) - paper_hit),
        "systems.paper_fps_err": sim.get("sim_fps", spec.PAPER_FPS) - spec.PAPER_FPS,
        "fleet.model.s": self_s("fleet.model"),
        "fleet.replay.s": incl("fleet.replay"),
        "fleet.demand.s": incl("fleet.demand"),
        "bench.import_s": import_s,
        "bench.unattributed_s": self_s(tracer.ROOT),
        "bench.spans": len(tracer.spans),
    }
    for system in ("multi_furion", "multi_furion_cache", "thin_client", "mobile"):
        ops = [op for op in extra if op.name == system and op.error is None]
        out[f"systems.{system}.s"] = sum(op.wall_s for op in ops)
        out[f"systems.{system}.sim_fps"] = ops[0].result.mean_fps if ops else 0.0
    fleets = [op.result.summary for op in cold if op.name == "fleet" and op.error is None]
    summary = fleets[0] if fleets else None
    out.update({
        "fleet.sessions_admitted": summary.sessions_admitted if summary else 0,
        "fleet.admission_retries": summary.admission_retries if summary else 0,
        "fleet.farm.renders": summary.farm.renders if summary else 0,
        "fleet.farm.batches": summary.farm.batches if summary else 0,
        "fleet.farm.wait_p99_ms": summary.farm.p99_wait_ms if summary else 0.0,
        "fleet.store.lookups": summary.store_lookups if summary else 0,
    })
    return out


def guard_cold_start() -> None:
    """Refuse to measure a process that is not cold: a leaked memo would
    pass a warm run off as a cold one."""
    from repro import perf
    from repro.systems import experiment
    from repro.world.games import load_game

    snapshot = perf.snapshot()
    if (load_game.cache_info().currsize or experiment._ARTIFACT_CACHE
            or snapshot["stages"] or snapshot["counters"]):
        raise RuntimeError("cold-start guard: a repro memo or the perf registry is not empty")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=spec.SCALES, default=spec.SCALES[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import workloads  # pulls in numpy, scipy and every repro package used
    import_s = time.perf_counter() - start
    guard_cold_start()

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    undo: list = []
    if args.trace:
        import spans
        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        undo = spans.install(tracer, also=(workloads,))
    harvest = Harvest()
    walls: Dict[str, float] = {}
    outputs: Dict[str, Any] = {}

    def run_phase(name: str, fn) -> None:
        with tracer.phase(name) if tracer else nullcontext():
            t0 = time.perf_counter()
            outputs[name] = fn()
            walls[name] = time.perf_counter() - t0
        if tracer:
            harvest.take(tracer, name)

    try:
        run_phase("setup", lambda: workload.setup(args.scale == "smoke"))
        state = outputs["setup"]
        run_phase("cold", lambda: workload.run_pass(state, args.seed))
        run_phase("warm", lambda: workload.run_pass(state, args.seed))
        run_phase("extra", lambda: workload.extra(state, args.seed))
    finally:
        if tracer:
            spans.uninstall(undo)
    cold, warm, extra = outputs["cold"], outputs["warm"], outputs["extra"]
    if not extra:
        del walls["extra"]

    failures = check_ops(cold, warm, extra, shape_checks=args.scale != "smoke")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = end_to_end(walls, cold, warm, extra, rss_mb)
    paper_hit = _mean(spec.PAPER_HIT_RATIO[g] for g in workload.games)
    report = {
        "traced": bool(tracer),
        "phase_wall_s": walls,
        "ops_attempted": len(cold) + len(warm) + len(extra),
        "ops_failed": len(failures),
        "failures": failures,
        "end_to_end": values,
        "paper": {"sim_hit_ratio": paper_hit, "sim_fps": spec.PAPER_FPS,
                  "baseline_sim_fps": spec.PAPER_MULTI_FURION_FPS},
    }
    if tracer:
        report["layers"] = layer_metrics(
            tracer, harvest, workload.artifacts(state), cold, warm, extra,
            values, paper_hit, import_s,
        )
        report["phase_breakdown_s"] = {p: tracer.phase_breakdown(p) for p in walls}
        if args.trace_out:
            tracer.write_chrome_trace(args.trace_out)
    sys.stdout.flush()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Five subcommands cover the everyday workflows:

* ``run`` — simulate one (system, game, players) experiment and print the
  QoE/network summary; ``--trace``/``--events`` capture a sim-time trace
  (Perfetto JSON / JSONL event log), ``--metrics``/``--openmetrics``
  sample the sim-time metrics pipeline (JSONL series dump / OpenMetrics
  text snapshot), ``--dashboard`` renders a live sparkline view, and
  ``--perf`` prints the stage profile table afterwards;
* ``report`` — frame-budget attribution from a ``--events`` JSONL log
  (per-stage p50/p95/p99 and the deadline-miss breakdown), SLO
  attainment from a ``--metrics`` dump, or ``--diff A B`` run-diff
  forensics between two dumps (exit 1 on regression);
* ``preprocess`` — run the §6 offline pipeline for a game and print the
  cutoff-scheme statistics (Table 3's columns);
* ``fleet`` — simulate fleet-scale multi-session serving (matchmaker,
  fleet admission, shared render farm, cross-session dedup) under a
  seeded arrival workload or a committed ``--arrivals`` trace file, and
  print the fleet summary block;
* ``games`` — list the nine study games with their published dimensions.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path
from typing import List, Optional

import dataclasses

from . import perf
from .adapt import AbrConfig
from .faults import ChurnSchedule, FaultSchedule
from .fleet import (
    FIDELITIES,
    WORKLOADS,
    ArrivalTrace,
    FleetBudget,
    FleetConfig,
    LobbyConfig,
    fleet_slos,
    run_fleet,
)
from .net import TRACE_PROFILES, ImpairmentConfig, RateTrace
from .predict import PredictConfig
from .session import SupervisorConfig, SyncConfig
from .systems import SYSTEMS, SessionConfig, prepare_artifacts, run_system
from .telemetry import (
    FrameBudgetReport,
    LiveDashboard,
    MetricsHub,
    SloEngine,
    SpanTracer,
    diff_dumps,
    emit_slo_instants,
    read_metrics_jsonl,
    render_diff,
    results_from_dump,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_jsonl,
    write_openmetrics,
)
from .world import ALL_GAMES, game_spec, load_game


def _cmd_games(_args: argparse.Namespace) -> int:
    print(f"{'name':10} {'title':24} {'genre':24} {'dimensions':>12}  type")
    for name in ALL_GAMES:
        spec = game_spec(name)
        dims = f"{spec.dimensions[0]:g}x{spec.dimensions[1]:g} m"
        kind = "indoor" if spec.indoor else "outdoor"
        print(f"{name:10} {spec.title:24} {spec.genre:24} {dims:>12}  {kind}")
    return 0


MAX_CLI_PLAYERS = 32


def _int_argument(text: str, what: str) -> int:
    """``int(text)``, or the argparse error naming ``what``."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{what} must be an integer, got {text!r}"
        ) from None


def _player_count(text: str) -> int:
    """Argparse type for the ``players`` positional: int in [1, 32]."""
    value = _int_argument(text, "players")
    if not 1 <= value <= MAX_CLI_PLAYERS:
        raise argparse.ArgumentTypeError(
            f"players must be between 1 and {MAX_CLI_PLAYERS}, got {value}"
        )
    return value


def _seed(text: str) -> int:
    """Argparse type for ``--seed``: a non-negative int (numpy's
    generators reject anything else deep inside the run)."""
    value = _int_argument(text, "seed")
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def _print_qoe(config: SessionConfig, result) -> None:
    """The per-player QoE rows of ``repro run`` (needs one displaying player)."""
    metrics0 = result.players[0].metrics
    print(f"  FPS             : {result.mean_fps:.1f}")
    print(f"  inter-frame     : {result.mean_inter_frame_ms:.1f} ms "
          f"(p95 {metrics0.p95_inter_frame_ms:.1f}, "
          f"p99 {metrics0.p99_inter_frame_ms:.1f})")
    print(f"  responsiveness  : {result.mean_responsiveness_ms:.1f} ms "
          f"(p95 {metrics0.p95_responsiveness_ms:.1f}, "
          f"p99 {metrics0.p99_responsiveness_ms:.1f})")
    if result.mean_cache_hit_ratio is not None:
        print(f"  cache hit ratio : {100 * result.mean_cache_hit_ratio:.1f} %")
    print(f"  BE traffic      : {result.be_mbps:.1f} Mbps "
          f"({result.per_player_be_mbps():.1f}/player)")
    print(f"  FI traffic      : {result.fi_kbps:.1f} Kbps")
    player = result.players[0]
    print(f"  CPU / GPU       : {100 * player.metrics.cpu_utilization:.0f} % "
          f"/ {100 * player.metrics.gpu_utilization:.0f} %")
    print(f"  power draw      : {player.power_w:.2f} W")
    if config.degraded_mode:
        metrics = [p.metrics for p in result.players]
        miss = sum(m.deadline_miss_rate for m in metrics) / len(metrics)
        stale = sum(m.stale_frames for m in metrics)
        max_age = max(m.max_stale_age_ms for m in metrics)
        retries = sum(m.fetch_retries for m in metrics)
        abandoned = sum(m.fetches_abandoned for m in metrics)
        rewarms = sum(m.rewarm_fetches for m in metrics)
        print("  -- resilience --")
        print(f"  deadline misses : {100 * miss:.1f} % of frames")
        print(f"  stale frames    : {stale} (max age {max_age:.1f} ms)")
        print(f"  fetch retries   : {retries} "
              f"({abandoned} abandoned, {rewarms} re-warms)")
    if config.adapt is not None:
        metrics = [p.metrics for p in result.players if p.metrics.frames]
        down = sum(m.abr_steps_down for m in metrics)
        up = sum(m.abr_steps_up for m in metrics)
        drops = sum(m.abr_drops for m in metrics)
        drop_rate = sum(m.drop_rate for m in metrics) / len(metrics)
        mean_crf = sum(m.abr_mean_crf for m in metrics) / len(metrics)
        degraded = sum(m.abr_degraded_ms for m in metrics) / len(metrics)
        print("  -- adaptation --")
        print(f"  CRF ladder      : {down} steps down / {up} up "
              f"(time-weighted CRF {mean_crf:.1f})")
        print(f"  frame drops     : {drops} ({100 * drop_rate:.1f} % of frames)")
        print(f"  degraded time   : {degraded:.0f} ms/player below base quality")
    if config.predict is not None:
        metrics = [p.metrics for p in result.players]
        forecasts = sum(m.spec_predictions for m in metrics)
        prefetches = sum(m.spec_prefetches for m in metrics)
        confirms = sum(m.spec_confirms for m in metrics)
        rollbacks = sum(m.spec_rollbacks for m in metrics)
        expired = sum(m.spec_expired for m in metrics)
        mispredicted = sum(m.spec_mispredictions for m in metrics)
        print("  -- speculation --")
        print(f"  pose forecasts  : {forecasts} "
              f"({mispredicted} beyond confidence radius)")
        print(f"  spec prefetches : {prefetches} "
              f"({confirms} confirmed, {rollbacks} rolled back, "
              f"{expired} expired)")
    if config.sync is not None:
        metrics = [p.metrics for p in result.players]
        alarms = sum(m.desync_alarms for m in metrics)
        resyncs = sum(m.resyncs for m in metrics)
        detect = max((m.desync_detection_ms for m in metrics), default=0.0)
        recover = sum(m.resync_recovery_ms for m in metrics)
        print("  -- sync check --")
        print(f"  desync alarms   : {alarms} "
              f"(worst detection {detect:.1f} ms)")
        print(f"  resyncs         : {resyncs} "
              f"(recovery {recover:.1f} ms total)")


def _outputs_writable(args: argparse.Namespace, *flags: str) -> bool:
    """Whether every requested output file can be opened for writing;
    reports the first that cannot in one line.  Checked before the
    simulation starts, so a mistyped path does not cost the whole run."""
    for flag in flags:
        path = getattr(args, flag)
        if path is not None:
            try:
                with open(path, "a"):
                    pass
            except OSError as exc:
                print(f"cannot write --{flag} {path}: {exc.strerror}", file=sys.stderr)
                return False
    return True


def _cmd_run(args: argparse.Namespace) -> int:
    if args.system == "mobile" and (args.trace_profile or args.abr):
        print("--trace-profile/--abr require a networked system "
              "(coterie, multi_furion, multi_furion_cache, thin_client)",
              file=sys.stderr)
        return 2
    rate_trace = None
    if args.trace_profile is not None and args.trace_profile not in TRACE_PROFILES:
        try:
            rate_trace = RateTrace.from_file(args.trace_profile)
        except (OSError, ValueError) as exc:
            print(f"invalid --trace-profile: {exc}", file=sys.stderr)
            return 2
    faults = None
    if args.faults:
        try:
            faults = FaultSchedule.parse(args.faults)
        except ValueError as exc:
            print(f"invalid --faults spec: {exc}", file=sys.stderr)
            return 2
    churn = None
    if args.churn is not None:
        if args.system in ("mobile",):
            print("--churn requires a networked system "
                  "(coterie, multi_furion, multi_furion_cache, thin_client)",
                  file=sys.stderr)
            return 2
        try:
            churn = ChurnSchedule.parse(args.churn)
            churn.validate_slots(args.players + churn.new_player_count())
        except ValueError as exc:
            print(f"invalid --churn spec: {exc}", file=sys.stderr)
            return 2
    if args.max_players is not None and args.players > args.max_players:
        print(f"players ({args.players}) exceeds --max-players "
              f"({args.max_players})", file=sys.stderr)
        return 2
    supervision = (None if args.max_players is None
                   else SupervisorConfig(max_players=args.max_players))
    if (args.predict or args.sync_check) and args.system != "coterie":
        print("--predict/--sync-check require the coterie system "
              "(frame cache + PUN sync channel)", file=sys.stderr)
        return 2
    if args.predict_horizon is not None and not args.predict:
        print("--predict-horizon requires --predict", file=sys.stderr)
        return 2
    predict = None
    if args.predict:
        try:
            predict = (PredictConfig() if args.predict_horizon is None
                       else PredictConfig(horizon_frames=args.predict_horizon))
        except ValueError as exc:
            print(f"invalid --predict-horizon: {exc}", file=sys.stderr)
            return 2
    sync = SyncConfig() if args.sync_check else None
    make_config = partial(_session_config, args, rate_trace, faults, churn,
                          supervision, predict, sync)
    try:
        make_config()
    except ValueError as exc:
        print(f"invalid run configuration: {exc}", file=sys.stderr)
        return 2
    if args.verify_determinism:
        return _verify_determinism(args, make_config)
    if not _outputs_writable(args, "trace", "events", "metrics", "openmetrics"):
        return 2
    tracer = SpanTracer() if (args.trace or args.events) else None
    metered = bool(args.metrics or args.openmetrics or args.dashboard)
    hub = MetricsHub() if metered else None
    dashboard = None
    if args.dashboard and hub is not None:
        dashboard = LiveDashboard(hub, engine=SloEngine())
        dashboard.attach()
    config = make_config(tracer=tracer, metrics=hub)
    if args.perf:
        with perf.timed("run.simulate"):
            result = run_system(args.system, args.game, args.players, config)
    else:
        result = run_system(args.system, args.game, args.players, config)
    slo_results = None
    if hub is not None:
        horizon_ms = args.duration * 1000.0
        if dashboard is not None:
            slo_results = dashboard.final(horizon_ms)
        else:
            slo_results = SloEngine().evaluate(hub.series)
        if tracer is not None:
            emit_slo_instants(tracer, slo_results)
    print(f"{args.system} on {args.game}, {args.players} player(s), "
          f"{args.duration:g}s simulated:")
    if result.players:
        _print_qoe(config, result)
    else:
        # Every slot was rejected, or evicted before its first frame.
        print("  no player displayed a frame")
    if result.membership is not None:
        member = result.membership
        print("  -- membership --")
        print(f"  roster          : {member.initial_players} initial, "
              f"{member.total_slots} slots, "
              f"{len(member.final_active)} active at end")
        print(f"  joins           : {member.joins_requested} requested, "
              f"{member.joins_admitted} admitted, "
              f"{member.joins_rejected} rejected "
              f"({member.joins_queued} queued retries)")
        print(f"  departures      : {member.leaves} graceful, "
              f"{member.evictions} evicted")
        print(f"  epochs          : {member.n_epochs} "
              f"({member.invariant_checks} invariant checks, "
              f"{member.invariant_violations} violations)")
        admitted = [s for s in member.stats if s.join_latency_ms > 0]
        if admitted:
            lat = sum(s.join_latency_ms for s in admitted) / len(admitted)
            warm = sum(s.warmup_ms for s in admitted) / len(admitted)
            print(f"  join latency    : {lat:.1f} ms mean "
                  f"(warm-up {warm:.1f} ms)")
    if hub is not None and slo_results is not None:
        print("  -- metrics --")
        print(f"  series          : {len(hub.series)} "
              f"({hub.samples_taken} sample boundaries)")
        for slo in slo_results:
            if slo.attainment is None:
                status = "n/a (series absent)"
            else:
                status = (f"{100.0 * slo.attainment:.1f} % attained, "
                          f"worst burn {slo.worst_burn:.1f}x")
            alerts = f", {len(slo.alerts)} alert(s)" if slo.alerts else ""
            print(f"  slo {slo.spec.name:<18}: {status}{alerts}")
        if args.metrics:
            n = write_metrics_jsonl(
                args.metrics, hub, slo_results=slo_results,
                meta={"system": args.system, "game": args.game,
                      "players": args.players, "seed": args.seed,
                      "duration_s": args.duration},
            )
            print(f"  metrics dump    : {n} records -> {args.metrics} "
                  f"(compare with `repro report --diff A B`)")
        if args.openmetrics:
            write_openmetrics(args.openmetrics, hub)
            print(f"  openmetrics     : -> {args.openmetrics}")
    if tracer is not None:
        if args.trace:
            n = write_chrome_trace(args.trace, tracer.records)
            print(f"  trace           : {n} events -> {args.trace} "
                  f"(load in Perfetto / chrome://tracing)")
        if args.events:
            n = write_events_jsonl(args.events, tracer.records)
            print(f"  event log       : {n} records -> {args.events} "
                  f"(analyze with `repro report {args.events}`)")
    if args.perf:
        print()
        print(perf.report())
    return 0


def _first_divergence(a, b) -> Optional[str]:
    """First observable difference between two RunResults, or None.

    Compares the roster shape, every player's SessionMetrics field by
    field, the raw FrameRecord timelines, the aggregate traffic counters,
    and the membership summary — the full determinism surface a run
    exposes.  Returns a one-line human-readable description of the first
    mismatch found.
    """
    if len(a.players) != len(b.players):
        return (f"player count differs: {len(a.players)} vs "
                f"{len(b.players)}")
    for pa, pb in zip(a.players, b.players):
        if pa.metrics != pb.metrics:
            for field in dataclasses.fields(pa.metrics):
                va = getattr(pa.metrics, field.name)
                vb = getattr(pb.metrics, field.name)
                if va != vb:
                    return (f"player {pa.player_id} metrics.{field.name}: "
                            f"{va!r} vs {vb!r}")
        if pa.records != pb.records:
            for i, (ra, rb) in enumerate(zip(pa.records, pb.records)):
                if ra != rb:
                    return (f"player {pa.player_id} frame {i} "
                            f"(t={ra.t_ms:.3f} ms): {ra!r} vs {rb!r}")
            return (f"player {pa.player_id} frame count: "
                    f"{len(pa.records)} vs {len(pb.records)}")
        if pa.fetches != pb.fetches:
            return (f"player {pa.player_id} fetches: "
                    f"{pa.fetches} vs {pb.fetches}")
    if a.be_mbps != b.be_mbps:
        return f"be_mbps: {a.be_mbps!r} vs {b.be_mbps!r}"
    if a.fi_kbps != b.fi_kbps:
        return f"fi_kbps: {a.fi_kbps!r} vs {b.fi_kbps!r}"
    if repr(a.membership) != repr(b.membership):
        return f"membership: {a.membership!r} vs {b.membership!r}"
    return None


def _session_config(args, rate_trace, faults, churn, supervision, predict,
                    sync, tracer=None, metrics=None) -> SessionConfig:
    """The one place ``repro run`` turns its flags into a SessionConfig, so
    ``--verify-determinism`` checks the run the other flags describe.
    ``rate_trace`` is an already-parsed ``--trace-profile`` file, if any;
    a bad ``--duration``/``--wifi-mbps``/``--loss`` raises ValueError."""
    if args.trace_profile in TRACE_PROFILES:
        rate_trace = RateTrace.named(
            args.trace_profile, seed=args.seed,
            duration_ms=args.duration * 1000.0,
        )
    impairment = None
    if args.loss > 0:
        impairment = ImpairmentConfig.bursty(args.loss, seed=args.seed)
    if rate_trace is not None:
        if impairment is None:
            impairment = ImpairmentConfig(rate_trace=rate_trace)
        else:
            impairment = dataclasses.replace(impairment, rate_trace=rate_trace)
    return SessionConfig(
        duration_s=args.duration, seed=args.seed,
        wifi_mbps=args.wifi_mbps, impairment=impairment,
        faults=faults, adapt=AbrConfig() if args.abr else None,
        churn=churn, supervision=supervision,
        predict=predict, sync=sync,
        tracer=tracer, metrics=metrics,
    )


def _verify_determinism(args, make_config) -> int:
    """Run the experiment twice and fail loudly on any bit divergence.

    Both runs use ``make_config()`` — the plain run's config with
    tracing/metrics left off (those are observers, not state).  Exit 0
    when every per-player metric, frame record, and aggregate counter is
    bit-identical; exit 1 with a first-divergence report otherwise.
    """
    label = f"{args.system} on {args.game}, {args.players} player(s), " \
            f"{args.duration:g}s, seed {args.seed}"
    print(f"determinism check: {label}")
    result_a = run_system(args.system, args.game, args.players, make_config())
    result_b = run_system(args.system, args.game, args.players, make_config())
    divergence = _first_divergence(result_a, result_b)
    frames = sum(len(p.records) for p in result_a.players)
    if divergence is not None:
        print(f"  run 1 vs run 2 DIVERGED: {divergence}", file=sys.stderr)
        return 1
    print(f"  run 1 == run 2: {len(result_a.players)} player(s), "
          f"{frames} frame records, BE {result_a.be_mbps:.6f} Mbps, "
          f"FI {result_a.fi_kbps:.6f} Kbps -- bit-identical")
    return 0


def _is_metrics_jsonl(path: str) -> bool:
    """True when the file's first record looks like a metrics dump."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                return (
                    isinstance(record, dict)
                    and record.get("kind") in ("meta", "series",
                                               "histogram", "slo")
                )
    except (OSError, ValueError):
        return False
    return False


def _report_metrics(path: str) -> int:
    """SLO attainment + worst burn windows from a metrics JSONL dump."""
    try:
        dump = read_metrics_jsonl(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read metrics dump: {exc}", file=sys.stderr)
        return 2
    if not dump.series:
        print(f"metrics dump {path} has no series records "
              "(empty or truncated dump)", file=sys.stderr)
        return 2
    meta = dump.meta or {}
    label = " ".join(
        str(meta[k]) for k in ("system", "game", "players") if k in meta
    )
    print(f"metrics dump {path}" + (f" ({label})" if label else "") + ":")
    print(f"  series          : {len(dump.series)}")
    for slo in results_from_dump(dump):
        name = slo["name"]
        if slo["attainment"] is None:
            print(f"  slo {name:<18}: n/a (series absent)")
            continue
        print(f"  slo {name:<18}: {100.0 * slo['attainment']:.1f} % "
              f"attained ({slo['compliant']}/{slo['evaluated']} windows, "
              f"{len(slo['alerts'])} alert(s))")
        for t_ms, burn in slo["worst"]:
            print(f"      worst burn  : {burn:8.2f}x at t={t_ms:.0f} ms")
    return 0


def _report_diff(path_a: str, path_b: str) -> int:
    """Run-diff forensics: exit 0 clean, 1 regression, 2 parse error."""
    try:
        dump_a = read_metrics_jsonl(path_a)
        dump_b = read_metrics_jsonl(path_b)
    except (OSError, ValueError) as exc:
        print(f"cannot read metrics dump: {exc}", file=sys.stderr)
        return 2
    rows = diff_dumps(dump_a, dump_b)
    print(render_diff(rows, path_a, path_b))
    return 1 if any(row.regressed for row in rows) else 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.diff is not None:
        return _report_diff(*args.diff)
    if args.events is None:
        print("report needs an EVENTS.jsonl/METRICS.jsonl argument "
              "or --diff A B", file=sys.stderr)
        return 2
    try:
        with open(args.events, "r", encoding="utf-8") as fh:
            has_records = any(line.strip() for line in fh)
    except OSError as exc:
        print(f"cannot read event log: {exc}", file=sys.stderr)
        return 2
    if not has_records:
        print(f"event log {args.events} is empty (no records)",
              file=sys.stderr)
        return 2
    if _is_metrics_jsonl(args.events):
        return _report_metrics(args.events)
    try:
        report = FrameBudgetReport.from_jsonl(args.events)
    except (OSError, ValueError) as exc:
        print(f"cannot read event log: {exc}", file=sys.stderr)
        return 2
    if not report.frames:
        print(f"event log {args.events} contains no frame spans "
              "(truncated run or wrong file?)", file=sys.stderr)
        return 2
    print(report.render())
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    if args.cache_dir is not None:
        try:
            Path(args.cache_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"cannot use --cache-dir {args.cache_dir}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    world = load_game(args.game)
    artifacts = prepare_artifacts(
        world,
        SessionConfig(seed=args.seed),
        seed=args.seed,
        cache_dir=args.cache_dir,
    )
    stats = artifacts.cutoff_map.stats()
    radii = sorted(artifacts.cutoff_map.leaf_radii())
    print(f"offline preprocessing for {world.spec.title}:")
    print(f"  leaf regions     : {stats.leaf_count}")
    print(f"  quadtree depth   : {stats.avg_depth:.2f} avg / {stats.max_depth} max")
    print(f"  cutoff radii     : {radii[0]:.1f} - {radii[-1]:.1f} m "
          f"(median {radii[len(radii) // 2]:.1f})")
    print(f"  FI budget        : {artifacts.budget.fi_ms:.1f} ms "
          f"-> near BE {artifacts.budget.near_be_budget_ms:.1f} ms")
    print(f"  far-BE frame     : ~{artifacts.far_size_model.mean_bytes / 1000:.0f} KB")
    print(f"  whole-BE frame   : ~{artifacts.whole_size_model.mean_bytes / 1000:.0f} KB")
    print(f"  modeled offline  : "
          f"{artifacts.cutoff_map.modeled_processing_hours():.2f} h on-device")
    if artifacts.disk_cache is not None:
        cache = artifacts.disk_cache
        print(f"  disk cache       : {cache.entry_count()} entries, "
              f"{cache.size_bytes() / 1e6:.1f} MB in {cache.root}")
    if args.perf:
        print()
        print(perf.report())
    return 0


def _fleet_config(args: argparse.Namespace,
                  arrivals: Optional[ArrivalTrace],
                  games: tuple) -> FleetConfig:
    """Assemble the :class:`FleetConfig` a ``repro fleet`` run uses."""
    return FleetConfig(
        workload=args.workload,
        rate_per_s=args.rate,
        duration_s=args.duration,
        seed=args.seed,
        games=games,
        arrivals=arrivals,
        lobby=LobbyConfig(
            session_size=args.session_size,
            min_session_size=args.min_session_size,
            max_wait_ms=args.max_wait_ms,
            retry_ms=args.retry_ms,
            patience_ms=args.patience_ms,
        ),
        budget=FleetBudget(
            gpu_slots=args.gpu_slots,
            render_ms=args.render_ms,
            bandwidth_mbps=args.fleet_mbps,
            max_sessions=args.max_sessions,
        ),
        session_duration_s=args.session_duration,
        warmup_points=args.warmup_points,
        batch_max=args.batch_max,
        deadline_ms=args.deadline_ms,
        shared=not args.isolated,
        fidelity=args.fidelity,
        system=args.system,
    )


def _print_fleet_summary(summary) -> None:
    """Render the fleet summary block (the tentpole's headline output)."""
    s = summary
    print("  -- matchmaking --")
    print(f"  players         : {s.players_arrived} arrived, "
          f"{s.players_matched} matched, {s.players_rejected} rejected, "
          f"{s.players_unmatched} unmatched")
    print(f"  sessions        : {s.sessions_formed} formed, "
          f"{s.sessions_admitted} admitted "
          f"({s.sessions_rejected} rejected, "
          f"{s.admission_retries} retries)")
    if s.rejects_by_reason:
        reasons = ", ".join(
            f"{reason} x{count}" for reason, count in s.rejects_by_reason
        )
        print(f"  reject reasons  : {reasons}")
    print(f"  join latency    : mean {s.join_mean_ms:.1f} ms "
          f"(p50 {s.join_p50_ms:.1f}, p99 {s.join_p99_ms:.1f})")
    farm = s.farm
    print("  -- render farm --")
    print(f"  renders         : {farm.renders} in {farm.batches} batches "
          f"(mean {farm.mean_batch:.2f}/batch, peak queue {farm.queue_peak})")
    print(f"  farm wait       : mean {farm.mean_wait_ms:.1f} ms "
          f"(p99 {farm.p99_wait_ms:.1f}, "
          f"{farm.deadline_misses} deadline misses)")
    print(f"  coalesced       : {farm.coalesced} in-flight dedups")
    print("  -- shared store --")
    print(f"  dedup           : {s.store_hits}/{s.store_lookups} hits "
          f"({100.0 * s.dedup_ratio:.1f} % fleet-wide)")
    print("  -- throughput --")
    print(f"  sessions/sec    : {s.sessions_per_s:.4f} "
          f"({s.sessions_completed} completed in "
          f"{s.makespan_ms / 1000.0:.1f} s)")


def _verify_fleet_determinism(config: FleetConfig) -> int:
    """Run the fleet twice; exit 1 unless the summaries are bit-identical."""
    result_a = run_fleet(config)
    result_b = run_fleet(config)
    if result_a.summary != result_b.summary:
        for fld in dataclasses.fields(result_a.summary):
            va = getattr(result_a.summary, fld.name)
            vb = getattr(result_b.summary, fld.name)
            if va != vb:
                print(f"  run 1 vs run 2 DIVERGED: summary.{fld.name}: "
                      f"{va!r} vs {vb!r}", file=sys.stderr)
                return 1
        print("  run 1 vs run 2 DIVERGED", file=sys.stderr)
        return 1
    if result_a.sessions != result_b.sessions:
        print("  run 1 vs run 2 DIVERGED: per-session reports differ",
              file=sys.stderr)
        return 1
    s = result_a.summary
    print(f"  run 1 == run 2: {s.sessions_completed} session(s), "
          f"{s.farm.renders} renders, dedup {100.0 * s.dedup_ratio:.1f} % "
          "-- bit-identical")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    games = tuple(g.strip() for g in args.games.split(",") if g.strip())
    unknown = [g for g in games if g not in ALL_GAMES]
    if unknown:
        print(f"unknown game(s) {', '.join(unknown)}; "
              f"known: {', '.join(ALL_GAMES)}", file=sys.stderr)
        return 2
    arrivals = None
    if args.arrivals is not None:
        try:
            arrivals = ArrivalTrace.from_file(args.arrivals)
        except (OSError, ValueError) as exc:
            print(f"invalid --arrivals trace: {exc}", file=sys.stderr)
            return 2
        trace_games = [g for g in arrivals.games() if g not in ALL_GAMES]
        if trace_games:
            print(f"--arrivals trace requests unknown game(s) "
                  f"{', '.join(trace_games)}; known: {', '.join(ALL_GAMES)}",
                  file=sys.stderr)
            return 2
        if not len(arrivals):
            print(f"--arrivals trace {args.arrivals} is empty",
                  file=sys.stderr)
            return 2
    try:
        config = _fleet_config(args, arrivals, games)
    except ValueError as exc:
        print(f"invalid fleet configuration: {exc}", file=sys.stderr)
        return 2
    if args.verify_determinism:
        trace = config.resolve_arrivals()
        print(f"fleet determinism check: {args.workload} workload, "
              f"{len(trace)} arrivals, seed {args.seed}")
        return _verify_fleet_determinism(config)
    if not _outputs_writable(args, "metrics", "openmetrics"):
        return 2
    metered = bool(args.metrics or args.openmetrics)
    hub = MetricsHub() if metered else None
    result = run_fleet(config, metrics=hub)
    summary = result.summary
    source = (f"trace {args.arrivals}" if arrivals is not None
              else f"{args.workload} arrivals")
    print(f"fleet: {source}, {len(summary.games)} game(s), "
          f"{summary.arrivals} player(s) over "
          f"{summary.horizon_ms / 1000.0:.1f} s:")
    _print_fleet_summary(summary)
    if config.fidelity == "full" and result.session_runs:
        total_frames = sum(
            p.metrics.frames
            for run in result.session_runs
            for p in run.players
        )
        print("  -- full fidelity --")
        print(f"  session replays : {len(result.session_runs)} "
              f"({total_frames} frame records through the "
              f"{config.system} engine)")
    if hub is not None:
        slo_results = SloEngine(fleet_slos()).evaluate(hub.series)
        print("  -- metrics --")
        print(f"  series          : {len(hub.series)} "
              f"({hub.samples_taken} sample boundaries)")
        for slo in slo_results:
            if slo.attainment is None:
                status = "n/a (series absent)"
            else:
                status = (f"{100.0 * slo.attainment:.1f} % attained, "
                          f"worst burn {slo.worst_burn:.1f}x")
            alerts = f", {len(slo.alerts)} alert(s)" if slo.alerts else ""
            print(f"  slo {slo.spec.name:<18}: {status}{alerts}")
        if args.metrics:
            n = write_metrics_jsonl(
                args.metrics, hub, slo_results=slo_results,
                meta={"workload": args.workload, "seed": args.seed,
                      "games": ",".join(summary.games),
                      "arrivals": summary.arrivals},
            )
            print(f"  metrics dump    : {n} records -> {args.metrics} "
                  f"(compare with `repro report --diff A B`)")
        if args.openmetrics:
            write_openmetrics(args.openmetrics, hub)
            print(f"  openmetrics     : -> {args.openmetrics}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Coterie (ASPLOS 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    games = sub.add_parser("games", help="list the nine study games")
    games.set_defaults(func=_cmd_games)

    run = sub.add_parser("run", help="simulate one experiment")
    run.add_argument("system", choices=SYSTEMS)
    run.add_argument("game", choices=ALL_GAMES)
    run.add_argument("players", type=_player_count, nargs="?", default=2,
                     help=f"initial player count (1-{MAX_CLI_PLAYERS})")
    run.add_argument("--duration", type=float, default=10.0,
                     help="simulated seconds of game play")
    run.add_argument("--seed", type=_seed, default=7)
    run.add_argument("--wifi-mbps", type=float, default=500.0)
    run.add_argument("--loss", type=float, default=0.0,
                     help="bursty packet-loss rate on the link (0-0.5)")
    run.add_argument("--faults", default=None,
                     help="fault schedule, e.g. "
                          "'dip@3000-8000:0.02,stall@1000-1500:25,outage@2000-4000:1'")
    run.add_argument("--churn", default=None,
                     help="membership churn schedule, e.g. "
                          "'join@2000,crash@5000:1,leave@7000:0,"
                          "flap@3000-9000:2~800'")
    run.add_argument("--max-players", type=int, default=None,
                     help="admission-control roster cap (default 8)")
    run.add_argument("--trace-profile", default=None, metavar="NAME|FILE",
                     help="time-varying link-capacity trace: one of "
                          f"{', '.join(TRACE_PROFILES)} (seeded by --seed), "
                          "or a 'start_ms capacity_factor' trace file")
    run.add_argument("--abr", action="store_true",
                     help="enable the closed-loop adaptation controller "
                          "(CRF ladder, prefetch throttling, frame drops)")
    run.add_argument("--predict", action="store_true",
                     help="enable speculative pose-prediction prefetch "
                          "with digest-checked rollback (coterie only)")
    run.add_argument("--predict-horizon", type=int, default=None,
                     metavar="FRAMES",
                     help="pose-forecast lookahead in frames "
                          "(default 6; requires --predict)")
    run.add_argument("--sync-check", action="store_true",
                     help="run the cross-peer desync validator: exchange "
                          "deterministic state hashes on a fixed cadence "
                          "and resync on mismatch (coterie only)")
    run.add_argument("--verify-determinism", action="store_true",
                     help="run the experiment twice and exit 1 with a "
                          "first-divergence report unless both runs are "
                          "bit-identical")
    run.add_argument("--trace", default=None, metavar="OUT.json",
                     help="write a Perfetto/chrome://tracing trace of the run")
    run.add_argument("--events", default=None, metavar="OUT.jsonl",
                     help="write the JSONL span log (input to `repro report`)")
    run.add_argument("--metrics", default=None, metavar="OUT.jsonl",
                     help="sample sim-time metrics and write the "
                          "schema-versioned JSONL series dump "
                          "(input to `repro report` / `report --diff`)")
    run.add_argument("--openmetrics", default=None, metavar="OUT.txt",
                     help="write an OpenMetrics text exposition snapshot "
                          "of the run's final metric values")
    run.add_argument("--dashboard", action="store_true",
                     help="render a live terminal dashboard (sparklines + "
                          "SLO status) while the run progresses")
    run.add_argument("--perf", action="store_true",
                     help="print the per-stage perf report afterwards")
    run.set_defaults(func=_cmd_run)

    rep = sub.add_parser(
        "report",
        help="frame-budget attribution from an event log, SLO summary "
             "from a metrics dump, or a two-run metrics diff",
    )
    rep.add_argument("events", metavar="LOG.jsonl", nargs="?", default=None,
                     help="JSONL event log from `repro run --events`, or a "
                          "metrics dump from `repro run --metrics`")
    rep.add_argument("--diff", nargs=2, metavar=("A.jsonl", "B.jsonl"),
                     default=None,
                     help="compare two metrics dumps; exit 1 when run B "
                          "regresses run A beyond per-metric thresholds")
    rep.set_defaults(func=_cmd_report)

    pre = sub.add_parser("preprocess", help="run the offline pipeline")
    pre.add_argument("game", choices=ALL_GAMES)
    pre.add_argument("--seed", type=_seed, default=3)
    pre.add_argument("--cache-dir", default=None,
                     help="persistent panorama/artifact cache directory")
    pre.add_argument("--perf", action="store_true",
                     help="print the per-stage perf report afterwards")
    pre.set_defaults(func=_cmd_preprocess)

    fleet = sub.add_parser(
        "fleet",
        help="simulate fleet-scale multi-session serving on a shared "
             "render farm with cross-session panorama dedup",
    )
    fleet.add_argument("workload", choices=WORKLOADS, nargs="?",
                       default="poisson",
                       help="synthetic player-arrival workload "
                            "(ignored with --arrivals)")
    fleet.add_argument("--arrivals", default=None, metavar="TRACE.txt",
                       help="replay a committed arrival trace file "
                            "('t_ms game' lines) instead of generating one")
    fleet.add_argument("--rate", type=float, default=2.0,
                       help="mean player arrivals per second")
    fleet.add_argument("--duration", type=float, default=30.0,
                       help="arrival-window length in seconds")
    fleet.add_argument("--seed", type=_seed, default=7)
    fleet.add_argument("--games", default="racing",
                       help="comma-separated games players arrive for")
    fleet.add_argument("--session-size", type=int, default=4,
                       help="target party size per session")
    fleet.add_argument("--min-session-size", type=int, default=2,
                       help="smallest party a lobby timeout may launch")
    fleet.add_argument("--max-wait-ms", type=float, default=1500.0,
                       help="lobby fill timeout before forming short")
    fleet.add_argument("--retry-ms", type=float, default=250.0,
                       help="admission retry interval for rejected sessions")
    fleet.add_argument("--patience-ms", type=float, default=4000.0,
                       help="total wait before a rejected party gives up")
    fleet.add_argument("--session-duration", type=float, default=10.0,
                       help="simulated seconds each admitted session plays")
    fleet.add_argument("--gpu-slots", type=int, default=4,
                       help="concurrent render batches the farm sustains")
    fleet.add_argument("--render-ms", type=float, default=30.0,
                       help="GPU milliseconds per panorama render")
    fleet.add_argument("--batch-max", type=int, default=8,
                       help="renders dispatched per farm batch")
    fleet.add_argument("--deadline-ms", type=float, default=250.0,
                       help="render deadline for session warm-up points")
    fleet.add_argument("--warmup-points", type=int, default=4,
                       help="renders a session blocks on before going live")
    fleet.add_argument("--fleet-mbps", type=float, default=2000.0,
                       help="serving-backhaul capacity (Constraint 2)")
    fleet.add_argument("--max-sessions", type=int, default=None,
                       help="hard concurrent-session cap (default: none)")
    fleet.add_argument("--isolated", action="store_true",
                       help="disable cross-session dedup: namespace every "
                            "panorama address per session (the bench_fleet "
                            "comparator)")
    fleet.add_argument("--fidelity", choices=FIDELITIES, default="model",
                       help="'model' simulates demand only; 'full' replays "
                            "every admitted session through the "
                            "single-session engine afterwards")
    fleet.add_argument("--system", choices=SYSTEMS, default="coterie",
                       help="engine used for --fidelity full replays")
    fleet.add_argument("--verify-determinism", action="store_true",
                       help="run the fleet twice and exit 1 unless both "
                            "summaries are bit-identical")
    fleet.add_argument("--metrics", default=None, metavar="OUT.jsonl",
                       help="sample fleet metrics and write the JSONL "
                            "series dump (input to `repro report`)")
    fleet.add_argument("--openmetrics", default=None, metavar="OUT.txt",
                       help="write an OpenMetrics snapshot of the fleet run")
    fleet.set_defaults(func=_cmd_fleet)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error on our side.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())

"""E-R3 — closed-loop adaptive streaming vs fixed CRF under rate traces.

The adaptation subsystem (``repro.adapt``) claims that, on a link whose
capacity varies over time, a client that *closes the loop* — estimating
delivery rate from its own transfers, stepping a CRF ladder, throttling
the prefetcher, and dropping doomed transfers — misses fewer prefetch
deadlines than a client that streams at a fixed CRF and only reacts
(stale fallbacks, background retries).  This benchmark pins that claim
on the three committed synthetic traces:

* **cellular** — seeded multiplicative random-walk capacity;
* **bufferbloat** — deterministic ramp into a deep trough, then recovery;
* **contention** — a square wave alternating full and quarter capacity.

For every trace both variants run with the *same* (trace, seed, config);
the gates require the adaptive run to be no worse on deadline-miss rate
under every trace, to have actually adapted (ladder steps observed), and
to replay bit-identically.  The full (non-smoke) mode adds a
``render_frames`` leg that scores mean displayed SSIM for both variants
— the CRF ladder only changes wire sizes, so displayed quality must not
collapse (differences come from stale-frame fallbacks, which adaptation
reduces).

Results land in ``benchmarks/results/BENCH_adaptive.json``.  Run
standalone with ``python benchmarks/bench_adaptive.py`` (add ``--smoke``
for the CI quick mode: shorter horizon, no SSIM leg).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from harness import fmt, gated_bench, run_cost, table, write_bench

from repro.net import TRACE_PROFILES, ImpairmentConfig, RateTrace
from repro.systems import SessionConfig, prepare_artifacts, run_coterie
from repro.world import load_game

GAME = "racing"
SEED = 1
PLAYERS = 4

DURATION_S = 8.0
SMOKE_DURATION_S = 3.0

# The SSIM leg really renders/encodes/decodes frames, so it runs shorter
# and with fewer players; displayed SSIM is a per-frame mean, not a
# duration-scaled quantity, so the shorter horizon does not bias it.
SSIM_DURATION_S = 2.0
SSIM_PLAYERS = 2
# The ladder only rescales wire bytes (pixels are not re-encoded per
# rung), so adaptive displayed SSIM may differ from fixed only through
# stale-fallback frames; a collapse beyond this band means the drop or
# throttle policy is showing badly stale panoramas.
SSIM_SLACK = 0.02


def _impairment(trace_name, duration_s):
    return ImpairmentConfig(
        rate_trace=RateTrace.named(
            trace_name, seed=SEED, duration_ms=duration_s * 1000.0
        )
    )


def _config(trace_name, duration_s, adapt, render=False):
    return SessionConfig(
        duration_s=duration_s, seed=SEED, render_frames=render,
        impairment=_impairment(trace_name, duration_s), adapt=adapt,
    )


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _row(result):
    """Per-variant outcomes, averaged (or summed) over players."""
    ms = [p.metrics for p in result.players if p.metrics.frames]
    ssims = [m.mean_ssim for m in ms if m.mean_ssim is not None]
    return {
        "fps": result.mean_fps,
        "deadline_miss_rate": _mean(m.deadline_miss_rate for m in ms),
        "drop_rate": _mean(m.drop_rate for m in ms),
        "stale_frames": sum(m.stale_frames for m in ms),
        "max_stale_age_ms": max(m.max_stale_age_ms for m in ms),
        "abr_steps_down": sum(m.abr_steps_down for m in ms),
        "abr_steps_up": sum(m.abr_steps_up for m in ms),
        "abr_drops": sum(m.abr_drops for m in ms),
        "abr_mean_crf": _mean(m.abr_mean_crf for m in ms),
        "abr_degraded_ms": _mean(m.abr_degraded_ms for m in ms),
        "mean_ssim": _mean(ssims) if ssims else None,
    }


def _metrics_key(result):
    """Everything a replay must reproduce bit-for-bit."""
    return ([p.metrics for p in result.players], result.be_mbps,
            result.fi_kbps)


def run_benchmark(smoke=False):
    """Run fixed vs adaptive Coterie under every trace profile."""
    duration_s = SMOKE_DURATION_S if smoke else DURATION_S
    world = load_game(GAME)
    artifacts = prepare_artifacts(
        world, SessionConfig(duration_s=duration_s, seed=SEED)
    )
    traces = {}
    replay_identical = True
    for name in TRACE_PROFILES:
        fixed = run_coterie(
            world, PLAYERS, _config(name, duration_s, False), artifacts
        )
        adaptive = run_coterie(
            world, PLAYERS, _config(name, duration_s, True), artifacts
        )
        replay = run_coterie(
            world, PLAYERS, _config(name, duration_s, True), artifacts
        )
        replay_identical = replay_identical and (
            _metrics_key(adaptive) == _metrics_key(replay)
        )
        traces[name] = {"fixed": _row(fixed), "adaptive": _row(adaptive)}

    if not smoke:
        render_artifacts = prepare_artifacts(
            world,
            SessionConfig(
                duration_s=SSIM_DURATION_S, seed=SEED, render_frames=True
            ),
        )
        for name in TRACE_PROFILES:
            for variant, adapt in (("fixed", False), ("adaptive", True)):
                result = run_coterie(
                    world, SSIM_PLAYERS,
                    _config(name, SSIM_DURATION_S, adapt, render=True),
                    render_artifacts,
                )
                traces[name][variant]["mean_ssim"] = _row(result)["mean_ssim"]

    return {
        "smoke": smoke,
        "duration_s": duration_s,
        "traces": traces,
        "replay_identical": replay_identical,
    }


def _acceptance(m):
    """Named gates; the miss-rate and replay gates never relax."""
    traces = m["traces"]
    checks = {
        f"adaptive_no_worse_on_miss_{name}": (
            traces[name]["adaptive"]["deadline_miss_rate"]
            <= traces[name]["fixed"]["deadline_miss_rate"]
        )
        for name in traces
    }
    checks["ladder_actually_stepped"] = any(
        traces[name]["adaptive"]["abr_steps_down"] > 0 for name in traces
    )
    checks["fixed_never_adapts"] = all(
        traces[name]["fixed"]["abr_steps_down"] == 0
        and traces[name]["fixed"]["drop_rate"] == 0.0
        for name in traces
    )
    checks["replay_bit_identical"] = m["replay_identical"]
    if not m["smoke"]:
        checks["displayed_ssim_holds"] = all(
            traces[name]["adaptive"]["mean_ssim"] is not None
            and traces[name]["fixed"]["mean_ssim"] is not None
            and traces[name]["adaptive"]["mean_ssim"]
            >= traces[name]["fixed"]["mean_ssim"] - SSIM_SLACK
            for name in traces
        )
    return checks


def _record(m, checks):
    payload = {
        "benchmark": "adaptive",
        "game": GAME,
        "seed": SEED,
        "players": PLAYERS,
        **{k: v for k, v in m.items() if not k.startswith("_")},
        "acceptance": checks,
        "cost": run_cost(),
    }
    write_bench("BENCH_adaptive.json", payload)
    rows = []
    for name, pair in m["traces"].items():
        fx, ad = pair["fixed"], pair["adaptive"]
        rows.append((
            name,
            f"{100 * fx['deadline_miss_rate']:.1f}%",
            f"{100 * ad['deadline_miss_rate']:.1f}%",
            f"{100 * ad['drop_rate']:.1f}%",
            f"{ad['abr_steps_down']}/{ad['abr_steps_up']}",
            fmt(ad["abr_mean_crf"], 1),
            fmt(fx["mean_ssim"], 4) if fx["mean_ssim"] is not None else "-",
            fmt(ad["mean_ssim"], 4) if ad["mean_ssim"] is not None else "-",
        ))
    print("\n" + table(
        "BENCH_adaptive",
        ("trace", "fixed miss", "adaptive miss", "drops", "steps dn/up",
         "mean CRF", "fixed SSIM", "adaptive SSIM"),
        rows,
        notes=f"{GAME}, {PLAYERS} players, {m['duration_s']:g}s per trace, "
        f"seed {SEED}; adaptive = the repro.adapt.controller constants; SSIM leg "
        f"{'skipped (smoke)' if m['smoke'] else f'{SSIM_PLAYERS} players, {SSIM_DURATION_S:g}s, render_frames'}",
    ))
    return payload


main, test_adaptive_beats_fixed = gated_bench(
    run_benchmark, _acceptance, _record, group="adapt"
)


if __name__ == "__main__":
    sys.exit(main())

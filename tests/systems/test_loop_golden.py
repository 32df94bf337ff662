"""Golden digests of every system's frame loop, feature by feature.

The four systems share one client frame loop; Coterie's degradation,
speculation and sync check plug into it as policies.  That structure
promises *bit-identical* output to the four hand-written loops it
replaced, so these digests were recorded on the last commit that ran
them (PR 12, ``fe07c03``).  ``racing-coterie``, the one scenario whose
near-BE queries reach past the LOD floor, was recorded on ``20bbdcc``,
before RT_nearBE stopped measuring floored candidates.  Each scenario is
run twice:

* **untraced** — sha256 over every ``SessionMetrics`` field and every
  ``FrameRecord`` of every player, ``switch_ssims``, the aggregate
  ``be_mbps``/``fi_kbps``/``link_utilization`` and the membership
  summary (epoch log, slot stats, counters);
* **traced + metered twin** — must reproduce the untraced result
  (observability never steers the simulation), plus sha256 over the
  ordered ``SpanTracer.records`` and over the ``MetricsHub`` JSONL dump.

A change that reorders one ``link.transfer``/``sim.timeout``/RNG draw
within a frame, or one tracer/hub emission, moves a digest.  To re-record
after an *intended* behaviour change, run this file as a script and paste
the rows it prints over ``GOLDEN_ROWS``::

    PYTHONPATH=src python tests/systems/test_loop_golden.py
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.faults import ChurnSchedule, FaultSchedule
from repro.net import ImpairmentConfig, RateTrace
from repro.predict import PredictConfig
from repro.session import SupervisorConfig
from repro.systems import (
    SessionConfig,
    prepare_artifacts,
    run_coterie,
    run_mobile,
    run_multi_furion,
    run_thin_client,
)
from repro.telemetry import MetricsHub, SpanTracer, write_metrics_jsonl
from repro.world import load_game

sys.path.insert(0, str(Path(__file__).parents[2] / "benchmarks"))
from bench_ablation_overhearing import run_overhearing  # noqa: E402

GAME = "viking"
SEED = 1
# Scenarios on another game than ``GAME``.
SCENARIO_GAMES = {"racing-coterie": "racing"}

# Dips deep enough that viking's far-BE fetches lose the deadline race
# (stale fallback, background retries, an abandoned fetch), a stall, and
# an outage on slot 1 (pause + re-warm).
FAULTS = "dip@200-700:0.01,stall@800-1100:25,outage@900-1300:1"
# The whole-frame baselines move ~10x the bytes per fetch: a milder dip
# keeps them displaying through the window.
BASELINE_FAULTS = "dip@200-700:0.3,stall@800-1100:25,outage@900-1300:1"
CHURN = "join@300,leave@600:0,crash@800:1,rejoin@1300:0,flap@1000-1900:2~250"
SPEC_FAULTS = (
    "desync@700:1,teleport@500:0~12,specstorm@900-1300:1,speccorrupt@300-1500"
)
EVERYTHING_FAULTS = (
    "dip@300-800:0.01,stall@900-1100:20,outage@1000-1300:1,"
    "desync@1400:0,teleport@500:1~12,speccorrupt@200-1600"
)
EVERYTHING_CHURN = "join@400,leave@700:0,rejoin@1200:0,crash@1500:1"


def _coterie(**run_kwargs):
    def run(world, n_players, config):
        return run_coterie(
            world, n_players, config, prepare_artifacts(world, config), **run_kwargs
        )

    return run


def _multi_furion(**run_kwargs):
    def run(world, n_players, config):
        return run_multi_furion(world, n_players, config, **run_kwargs)

    return run


RUNNERS = {
    "mobile": run_mobile,
    "thin_client": run_thin_client,
    "multi_furion": _multi_furion(),
    "multi_furion_cache": _multi_furion(exact_cache=True),
    "coterie": _coterie(),
    "coterie_nocache": _coterie(use_cache=False),
    "coterie_overhear": lambda world, n_players, config: run_overhearing(
        world, n_players, config, prepare_artifacts(world, config)
    ),
    "coterie_stride5": _coterie(ssim_stride=5),
}
NETWORKED = ("coterie", "multi_furion", "thin_client")


def _cellular(duration_s):
    return ImpairmentConfig(
        rate_trace=RateTrace.named("cellular", seed=SEED, duration_ms=duration_s * 1000.0)
    )


def _scenarios():
    """name -> (runner key, n_players, SessionConfig keyword arguments)."""
    table = {}
    for system in RUNNERS:
        if system != "coterie_stride5":
            table[f"clean-{system}"] = (system, 2, dict(duration_s=0.6))
    for system in NETWORKED:
        # The exact cache never hits (§4.6 Version 1) but is cleared on
        # rejoin, so the churn scenario runs Multi-Furion with it on.
        churned = "multi_furion_cache" if system == "multi_furion" else system
        table[f"faults-{system}"] = (
            system, 2,
            dict(duration_s=1.6, fetch_timeout_ms=40.0, fetch_max_retries=2,
                 fetch_backoff_cap_ms=100.0,
                 faults=FaultSchedule.parse(FAULTS if system == "coterie" else BASELINE_FAULTS)),
        )
        table[f"adapt-{system}"] = (
            system, 2,
            dict(duration_s=1.5, wifi_mbps=80.0, impairment=_cellular(1.5),
                 adapt=True),
        )
        table[f"churn-{churned}"] = (
            churned, 3,
            dict(duration_s=2.0, wifi_mbps=2000.0, churn=ChurnSchedule.parse(CHURN),
                 supervision=SupervisorConfig(warmup_fetches=2)),
        )
    table["speculation-coterie"] = (
        "coterie", 2,
        dict(duration_s=1.8, predict=PredictConfig(), sync=True,
             faults=FaultSchedule.parse(SPEC_FAULTS)),
    )
    table["fullrender"] = (
        "coterie_stride5", 2, dict(duration_s=0.35, render_frames=True)
    )
    # Racing's sparse track regions put the cutoff past the LOD floor's
    # reach, so RT_nearBE weighs far candidates at the floor unmeasured.
    table["racing-coterie"] = ("coterie", 2, dict(duration_s=0.6))
    table["everything-coterie"] = (
        "coterie", 2,
        dict(duration_s=2.0, wifi_mbps=300.0, impairment=_cellular(2.0),
             adapt=True, faults=FaultSchedule.parse(EVERYTHING_FAULTS),
             churn=ChurnSchedule.parse(EVERYTHING_CHURN),
             supervision=SupervisorConfig(warmup_fetches=2),
             predict=PredictConfig(), sync=True, prefetch_deadline_ms=12.0),
    )
    return table


SCENARIOS = _scenarios()

# One row per scenario: name, result digest, trace digest, metrics digest.
GOLDEN_ROWS = """
adapt-coterie 1a0849a8352e36b11419664e22c15ab2a184a3df6c5d03e9e6ec68f7b0578bcc ac4970a1a0d5a3a66947f939783725f84bf0452cad4b9897d79f0ac954f1135d f0b3e32b4ccfbbfbb91953522e799d3561da8163c403d107984fd784152900fd
adapt-multi_furion 0d65d535674526ac8cc542112f6fb40e3389e3a2c235349e343faa6534a13a05 af4dbfd11bf0d5896ad58b034b65480ec6b966e6cc9d057e255333c334db7a0d 5ffdacd4f28359cf9779559f6a012f202a2b9c0ef435d2d6a65ae1a7a5e9260f
adapt-thin_client 99bbc93f5f002a829ca15d529bc1bcec0152fc1308659cd1bba92380e3957240 0c5357504730c923d26301db9b7916c4806a2f69e460999f793c24e5f0477ec6 36481e2e02fe57a521b94032d8ab88bf7c0b7c33d8d283b7cd5b6c08ed411004
churn-coterie aae8024758539ddc83c595894d4245737aeff9ec5e77bb170ca9117e198c43db 93ccb088a177e683596b1bd1393dc4a6c7df3e7c0fcd532361751d3ff5ef2ab7 2c68802700f45328d0493dd5d0ebe633bc52e63ef3094656411e8b718d09b268
churn-multi_furion_cache 937da41dd8c4165428de136b634c5e0c33fe74f7603e2db2be8e712c235bd164 e01858446c3326e7a2d315b320334b04ef691771557faf5d031e80fc1efc338f 8ff7d201f04549e8d691cc1e78fc3e813332171e65cf59d3c76be1359c48949e
churn-thin_client c4a1343a7342c3a5e47a106fd98923aea4a5e2777790002d66d1f27dd8163855 8db065e3032a2c87450ed118c052ff49ca3b7cc4663e66b4bf6436ee7ef3865c a11859a4771a836bcc90cccd8302e1a8b178e155a60635e12282a06c431c84f2
clean-coterie bff94f847716c0563b8b7ce1a3e6def68f9f76dbf8e813325f91306710e48e06 463bc842da702c155860250a23f9773a73bb3d8a56afdf4b486b325792353220 ac0324d3704e87f44e840c1d26eb3013a2188bc1d882b71333310f66e343d52d
clean-coterie_nocache 29fe3b30e66f8e404c748bb06d8d2c8920e8f075d69ee0d52b49f09242ec68c5 f454f95aa4d4f05a5dae7878c4af6780173df73e833a409d237708808c3ba9b1 f79e1c0eec57e4c73c81d098ab4fc34464ac20a2e405cf05dc99371dd4a97081
clean-coterie_overhear 8fa55054965edd8deb0f36984e58fbe3be8717d6482d3c26e7449eed806a2939 04661c559be97ceb1152559a7eb4ec3cc56adca6e4c85a57180fb25efa00e497 810166fdf84591dc5154a84015ef666c8d829cf5d4e586febac6e37cb3661b5c
clean-mobile a9ac2c2b1052b91e3c920ee23a3d3091f63bc6b8591daad73699aa524e1a02c1 68c5790d80371902f7e5e627bd158f8037f957634de07ea53460f71dda70fcdb 5fffd3a516d86e36f37ef18d804a0fd1c8cc9bdb2f751f3368eb94fbfe7e77ed
clean-multi_furion ab33f41eb69789ed79dd413b176a16afbd97364b198a607923cafb8360fd65e8 0e3bc2be787bee4d60b4011b7501c58e1fcbeb531f0ad21b80b20f6d724b4dfb 6e721608d4c65a010ecf38e0d6d64f7c8ded3ecf9cc2920175096379c0a4768c
clean-multi_furion_cache 3837a337063e2be7007a6a6414b68d7cdcfb284dd4c52ed32c2c96d8423014bd da8841188ae7fb72b5aae72726de44eabbaba90156d5319939ac5e2c7ea0431b 484c17818597f09940966cf224c4dee9c6f62825ff1cfa948e9c838716df5cb8
clean-thin_client fd5c92d6502185a052d10ccf22a5c3e87b0b6158fc3203ff73e42660d0e9b3e7 adf1da6ef67faeaf42d1362c868ce9b6cdf38ea05bb70726440179e0a93950c4 e52c2f97b1a38b18fb04e48ed50b593c72c4f4753b869881ce69bf7e576781ab
everything-coterie b177d4613b3202b785fe3a5c32fe97b188f94887b0dc9c0c7d8cec3fb9bd766b 80cec5063c5a47790db1328f6cefeccfceab3841aec2603e6b7b051f564c3397 ee754f033f177da0c5df2d1b86da4af1aca22a7495e412267bce6b9d6abf9ab6
faults-coterie 4f4993506d33faedbecab22ed7de840eb3c83febdabfcd1aacae4a53a9ee9aae 422c86872d9827d475a4730fc740b09aa4755d66e15c7d8f80a1ef89aea382d1 3bf498194fbe8c9abac8718e0d9445e5e23e8fcdfa521d2c8c3139d8b0448958
faults-multi_furion 2907c916642a02f403398f87f35a1824f8e9be6f6175804b3a6d2f9750332c65 ead489d5193e3e15e2752e4736a998eb14e2a10025b2d52da10dd2e4a02e80a8 96570863de8d6ed7dc1e720926002bcdf35e049093f4f1d2ebd23b10abc81a66
faults-thin_client cd027409ba78d6aa18fb1016a0c9a7ba2d660f5d33c466a979eab69c38419316 aaf3631083949a997b5b13cd0ed8d37668068ae00d6bb19d12600c6aaa0758e1 0b5e52a27a4e20fe6e35156f37fbc01bbdf89c0dc01121c97ecca975d80cb6b4
racing-coterie fa2d9d33cc9d7fdebe585c92eef5face207bf57932f599381492626685c62113 4ffa54ed9045a17e8abff5104bbe6f18d293b05fb16d2967fc2650629ec27f75 da4d09fdff8472d17a7a7b94f41e833245e85050b109d050752131e559f87349
fullrender 8e1721476770f86686c4dc17652cb1e0d0957055978e1f8b14f566e247dd0b29 d02ccec7c6fdd40d0363f2131649989db3dae35fc57954e1d15a0c8b55cc86a4 9546602d0fca8fdc2e7ff0dafb6383a11830fb2a43ea18b7a7808d14c0e92d34
speculation-coterie 91fe13011cb71c38f82364012e9afc0a483bbb93ee255a0c271013dfa2807507 67bf55da8780165c356becbdfc75677c49dd19fa9dfeace953678e5c1610c4d1 00e8dfcc5dd3852d8d7c1d60da5b3fd36d6f7ee75f3bf5ec8603c7b9b8f6366b
"""

GOLDEN = {
    name: tuple(digests)
    for name, *digests in map(str.split, GOLDEN_ROWS.strip().splitlines())
}


def _canonical(value):
    """A JSON-able form that keeps every float bit (``float.hex``)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, (bool, str, int)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return [[str(k), _canonical(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


def result_digest(result) -> str:
    """Everything a ``RunResult`` reports, player by player."""
    return _sha(_canonical({
        "system": result.system,
        "be_mbps": result.be_mbps,
        "fi_kbps": result.fi_kbps,
        "membership": result.membership,
        "players": [
            [p.player_id, p.metrics, p.records, p.switch_ssims, p.fetches,
             p.power_w, p.temperature_c]
            for p in result.players
        ],
        "link_utilization": result.link_utilization,
    }))


def trace_digest(tracer) -> str:
    """The ordered trace: one row per record, args in emission order."""
    return _sha(_canonical([
        [r.kind, r.name, r.cat, r.player, r.lane, r.start_ms, r.dur_ms, r.args]
        for r in tracer.records
    ]))


def metrics_digest(hub, tmp_path) -> str:
    """The hub's JSONL export, byte for byte."""
    path = tmp_path / "metrics.jsonl"
    write_metrics_jsonl(path, hub)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_scenario(name, tmp_path):
    """The scenario's (result, trace, metrics) digests, twin checked."""
    runner, n_players, kwargs = SCENARIOS[name]
    world = load_game(SCENARIO_GAMES.get(name, GAME))
    plain = RUNNERS[runner](world, n_players, SessionConfig(seed=SEED, **kwargs))
    tracer, hub = SpanTracer(), MetricsHub()
    twin = RUNNERS[runner](
        world, n_players, SessionConfig(seed=SEED, tracer=tracer, metrics=hub, **kwargs)
    )
    # Observability never steers the simulation.
    assert result_digest(twin) == result_digest(plain), (
        f"{name}: tracing/metering changed the simulated result"
    )
    return result_digest(plain), trace_digest(tracer), metrics_digest(hub, tmp_path)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_frame_loop_bit_identical_to_recorded(name, tmp_path):
    assert run_scenario(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sorted(SCENARIOS):
            print(scenario, *run_scenario(scenario, pathlib.Path(tmp)))

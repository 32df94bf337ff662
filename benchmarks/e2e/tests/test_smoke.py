"""A ``--scale smoke --trace`` run emits every declared metric and no other."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spec

E2E = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--scale", "smoke", "--trace", "--seed", "1",
         "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    return done, json.loads(out.read_text())


def test_exits_zero_with_no_failed_operation(smoke):
    done, document = smoke
    assert done.returncode == 0
    assert list(document["workloads"]) == list(spec.WORKLOADS)
    for result in document["workloads"].values():
        assert result["ops_failed"] == 0 and result["ops_attempted"] >= 4


def test_result_file_is_flagged_and_carries_the_environment(smoke):
    _, document = smoke
    env = document["environment"]
    assert env["comparable"] is False and env["scale"] == "smoke" and env["seed"] == 1
    assert set(env["thread_env"].values()) == {"1"}
    for key in ("git_commit", "python", "numpy", "scipy", "nproc"):
        assert env[key]
    for result in document["workloads"].values():
        assert set(result["phase_wall_s"]) >= {"setup", "cold", "warm"}


def test_each_workload_reports_exactly_its_end_to_end_metrics(smoke):
    _, document = smoke
    for name, result in document["workloads"].items():
        expected = {m.name for m in spec.END_TO_END
                    if m.workloads is None or name in m.workloads}
        assert set(result["end_to_end"]) == expected


def test_driver_lines_carry_the_declared_names_and_nothing_else(smoke):
    done, document = smoke
    lines = [json.loads(line) for line in done.stdout.strip().splitlines()[-4:]]
    per_layer = {m.name for m in spec.UNGATED} | set(spec.LAYER_NAMES)
    for line, result in zip(lines, document["workloads"].values()):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == per_layer
        assert all(set(entry) == {"value", "unit"} for entry in line["metrics"].values())
        untraced = json.loads(run.driver_line(result, trace=False))
        assert set(untraced["metrics"]) == {m.name for m in spec.GATED}
        assert all(entry["value"] > 0 for entry in untraced["metrics"].values())


def test_layers_show_up_where_the_workload_uses_them(smoke):
    _, document = smoke

    def layer(workload, name):
        return document["workloads"][workload]["per_layer"][name]["value"]

    assert layer("racing_cold", "world.reachability.calls") > 1000
    assert layer("racing_cold", "core.cutoff.s") > 0
    assert layer("viking_systems", "systems.mobile.s") > 0
    assert layer("viking_systems", "fleet.replay.s") == 0
    assert layer("cts_fullrender", "codec.decode.calls") > 0
    assert layer("cts_fullrender", "core.merger.s") > 0
    assert layer("viking_systems", "core.merger.s") == 0
    assert layer("fleet_full", "fleet.replay.s") > 0
    assert layer("fleet_full", "fleet.sessions_admitted") >= 1
    for workload in spec.WORKLOADS:
        assert layer(workload, "core.dist_thresh.warm_s") == 0
        assert layer(workload, "world.scene_query.calls") > 0
        assert layer(workload, "sim.scheduled") > 0
        assert layer(workload, "core.cache.hit_ratio") == pytest.approx(
            document["workloads"][workload]["end_to_end"]["sim_hit_ratio"]["value"], abs=0.05)
        parts = document["workloads"][workload]["phase_breakdown_s"]
        for phase in ("setup", "cold", "warm"):
            wall = parts[phase]["wall"]
            assert sum(v for k, v in parts[phase].items() if k != "wall") == pytest.approx(
                wall, rel=1e-6)
            assert parts[phase]["bench.unattributed"] < 0.05 * wall


def test_trace_files_are_chrome_trace_json(smoke):
    for workload in spec.WORKLOADS:
        document = json.loads((E2E / "out" / f"trace_{workload}.json").read_text())
        assert document["metadata"]["trace_id"].startswith(workload)
        phases = {e["args"]["phase"] for e in document["traceEvents"]}
        assert {"setup", "cold", "warm"} <= phases

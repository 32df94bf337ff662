"""``BENCHMARK.json`` is a copy of ``spec.py`` and fits the driver's limits."""

import json
import re
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _document():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_spec():
    document = _document()
    assert document == spec.benchmark_json(
        document["command"], document["paths"], document["run_seconds"]
    )
    assert document["paths"] == ["benchmarks/e2e"]
    assert document["command"][:2] == ["python3", "benchmarks/e2e/run.py"]


def test_contract_limits():
    document = _document()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert isinstance(document["run_seconds"], int) and 1 <= document["run_seconds"] <= 60
    names = (
        [w["name"] for w in document["workloads"]]
        + [m["name"] for m in document["end_to_end"]]
        + [m["name"] for m in document["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert all(m["bound"] <= setup[0]["bound"] for m in document["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_fourteen_end_to_end_metrics_and_four_workloads():
    assert len(spec.END_TO_END) == 14
    assert list(spec.WORKLOADS) == [
        "racing_cold", "viking_systems", "cts_fullrender", "fleet_full"]
    assert {m.name for m in spec.GATED} | {m.name for m in spec.UNGATED} == {
        m.name for m in spec.END_TO_END}
    # a gated metric must exist on every workload
    assert all(m.workloads is None for m in spec.GATED)

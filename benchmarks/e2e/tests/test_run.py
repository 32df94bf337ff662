"""``run.py``: folding repetitions, the checks across them, the reference."""

import json
import statistics

import pytest

import run
import spec


def _report(cold_wall_s, sim_fps=58.0, traced=False, ops_failed=0, cutoff_s=1.0):
    report = {
        "traced": traced,
        "phase_wall_s": {"setup": 1.0, "cold": cold_wall_s - 1.0, "warm": 2.0},
        "ops_attempted": 2,
        "ops_failed": ops_failed,
        "failures": [f"cold[{i}] coterie: raised" for i in range(ops_failed)],
        "end_to_end": {"cold_wall_s": cold_wall_s, "sim_fps": sim_fps},
        "paper": {},
    }
    if traced:
        report["layers"] = {
            name: cutoff_s if name == "core.cutoff.s" else 0.0
            for name in spec.LAYER_NAMES if name != "bench.trace_overhead_pct"
        }
        report["phase_breakdown_s"] = {
            phase: {"wall": wall, "core.cutoff": wall * 0.75, "bench.unattributed": wall * 0.25}
            for phase, wall in report["phase_wall_s"].items()
        }
    return report


def test_fold_reports_the_median_and_keeps_every_sample():
    result = run.fold([_report(10.0), _report(13.0), _report(11.0)], [])
    assert result["reps"] == 3 and result["ops_failed"] == 0 and result["ops_attempted"] == 6
    assert result["end_to_end"]["cold_wall_s"] == {
        "value": 11.0, "unit": "s", "samples": [10.0, 13.0, 11.0]}
    assert result["phase_wall_s"]["cold"] == [9.0, 12.0, 10.0]
    assert "per_layer" not in result


def test_fold_takes_layers_and_overhead_from_the_traced_twins():
    plain = [_report(10.0), _report(12.0)]
    traced = [_report(11.0, traced=True, cutoff_s=3.0), _report(13.2, traced=True, cutoff_s=5.0)]
    result = run.fold(plain, traced)
    assert result["ops_failed"] == 0 and result["ops_attempted"] == 8
    assert list(result["per_layer"]) == list(spec.LAYER_NAMES)
    assert result["per_layer"]["core.cutoff.s"] == {"value": 4.0, "unit": "s"}
    # median traced cold_wall_s 12.1 over the untraced median 11.0
    assert result["per_layer"]["bench.trace_overhead_pct"]["value"] == pytest.approx(10.0)
    # end-to-end values never come from a traced run
    assert result["end_to_end"]["cold_wall_s"]["samples"] == [10.0, 12.0]


def test_a_repetition_that_simulates_something_else_fails_the_observer_check():
    result = run.fold([_report(10.0), _report(10.1, sim_fps=57.0)], [])
    assert result["ops_failed"] == 1 and "sim_fps" in result["failures"][0]
    result = run.fold([_report(10.0)], [_report(11.0, sim_fps=57.0, traced=True)])
    assert result["ops_failed"] == 1 and "traced repetition" in result["failures"][0]
    result = run.fold([_report(10.0)], [_report(11.0, traced=True, ops_failed=1)])
    assert any("ops_failed differs" in failure for failure in result["failures"])


def test_layer_self_times_must_add_up_to_the_phase_wall():
    leaky = _report(11.0, traced=True)
    leaky["phase_breakdown_s"]["cold"]["core.cutoff"] *= 0.9
    result = run.fold([_report(10.0)], [leaky])
    assert result["ops_failed"] == 1 and "cold layer self-times" in result["failures"][0]


def test_simulated_values_must_match_the_reference_or_beat_it():
    expected = {"sim_fps": 58.0, "sim_m2p_ms": 13.0}
    assert run.reference_failures(expected, {"sim_fps": 58.0, "sim_m2p_ms": 13.0}) == []
    assert run.reference_failures(expected, {"sim_fps": 59.0, "sim_m2p_ms": 12.5}) == []
    worse = run.reference_failures(expected, {"sim_fps": 58.0 - 1e-6, "sim_m2p_ms": 13.0 + 1e-6})
    assert len(worse) == 2 and "sim_m2p_ms" in worse[0] and "sim_fps" in worse[1]
    assert len(run.reference_failures(expected, {"sim_fps": 58.0})) == 1
    # a failed reference check fails the workload
    result = run.fold([_report(10.0, sim_fps=57.0)], [], {"sim_fps": 58.0})
    assert result["reference_checked"] and result["ops_failed"] == 1
    assert not run.fold([_report(10.0)], [])["reference_checked"]


def test_committed_reference_names_only_simulated_metrics_of_the_workload():
    reference = json.loads(run.REFERENCE.read_text())
    assert set(reference) == set(spec.WORKLOADS)
    for workload, seeds in reference.items():
        names = {m.name for m in spec.END_TO_END if m.clock == "sim"
                 and (m.workloads is None or workload in m.workloads)}
        assert len(seeds) >= 10
        for seed, values in seeds.items():
            assert int(seed) >= 0 and set(values) == names


def test_smoke_numbers_cannot_become_the_reference():
    with pytest.raises(SystemExit):
        run.main(["--scale", "smoke", "--update-reference"])


def test_seconds_repeats_the_workload_and_the_median_is_over_the_repetitions():
    # ~4 s a repetition at smoke scale: 20 s fit at least two even on a slow box
    result = run.run_workload("cts_fullrender", seed=1, scale="smoke", seconds=20.0, trace=False)
    assert result["reps"] >= 2 and result["ops_failed"] == 0
    for entry in result["end_to_end"].values():
        assert len(entry["samples"]) == result["reps"]
        assert entry["value"] == statistics.median(entry["samples"])
    assert len(set(result["end_to_end"]["sim_hit_ratio"]["samples"])) == 1
    assert len(set(result["end_to_end"]["cold_wall_s"]["samples"])) == result["reps"]

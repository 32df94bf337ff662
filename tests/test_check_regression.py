"""Tests for the CI perf-regression gate (``benchmarks/check_regression.py``).

The ISSUE's acceptance bar requires the gate to *demonstrably* fail on a
deliberate slowdown, so these tests build synthetic baseline/fresh
artifact directories and drive ``main()`` end to end: identical runs
pass, a 2x wall slowdown fails, ``--ratio-only`` ignores walls but still
catches a speedup-ratio drop, and the tolerance boundary is exclusive.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

from check_regression import (  # noqa: E402
    Comparison,
    compare_dirs,
    compare_metric,
    lookup,
    main,
    update_baselines,
)

PREPROCESS_BASE = {
    "benchmark": "preprocess_speedup",
    "speedup": {"cached": 3.0, "warm": 6.0},
    "legs": {
        "serial": {"wall_s": 6.0},
        "cached": {"wall_s": 2.0},
        "warm": {"wall_s": 1.0},
    },
}

PREDICTION_BASE = {
    "benchmark": "prediction",
    "improvement": {"genres_improved": 3},
    "clean": {"desync_alarms": 0},
}


def write_dirs(tmp_path, fresh_mutation=None):
    """Baseline + fresh dirs holding the synthetic artifacts.

    ``fresh_mutation(docs)`` may edit the fresh copies in place; the
    baseline always holds the pristine documents.
    """
    baseline = tmp_path / "baseline"
    fresh = tmp_path / "fresh"
    baseline.mkdir()
    fresh.mkdir()
    docs = {
        "BENCH_preprocess.json": copy.deepcopy(PREPROCESS_BASE),
        "BENCH_prediction.json": copy.deepcopy(PREDICTION_BASE),
    }
    for name, doc in docs.items():
        (baseline / name).write_text(json.dumps(doc))
    if fresh_mutation is not None:
        fresh_mutation(docs)
    for name, doc in docs.items():
        (fresh / name).write_text(json.dumps(doc))
    return baseline, fresh


def run_gate(baseline, fresh, *extra):
    """Invoke the gate CLI; returns its exit code."""
    return main([
        "--baseline-dir", str(baseline), "--fresh-dir", str(fresh), *extra
    ])


class TestLookup:
    def test_nested_path(self):
        assert lookup(PREPROCESS_BASE, "legs.cached.wall_s") == 2.0

    def test_key_with_plus(self):
        assert lookup({"speedup": {"a+b": 3.2}}, "speedup.a+b") == 3.2

    def test_missing_returns_none(self):
        assert lookup(PREPROCESS_BASE, "legs.gpu.wall_s") is None

    def test_non_numeric_returns_none(self):
        assert lookup({"benchmark": "preprocess_speedup"}, "benchmark") is None


class TestCompareMetric:
    def test_identical_passes(self):
        c = compare_metric("a", "m", "wall", 2.0, 2.0, 0.25, False)
        assert not c.regressed and not c.skipped

    def test_wall_slowdown_fails(self):
        c = compare_metric("a", "m", "wall", 2.0, 4.0, 0.25, False)
        assert c.regressed

    def test_wall_boundary_is_exclusive(self):
        # Exactly base * (1 + tol) is still within tolerance.
        c = compare_metric("a", "m", "wall", 2.0, 2.5, 0.25, False)
        assert not c.regressed
        c = compare_metric("a", "m", "wall", 2.0, 2.5001, 0.25, False)
        assert c.regressed

    def test_ratio_only_skips_wall(self):
        c = compare_metric("a", "m", "wall", 2.0, 20.0, 0.25, True)
        assert c.skipped and not c.regressed

    def test_ratio_high_drop_fails_even_ratio_only(self):
        c = compare_metric("a", "m", "ratio_high", 3.0, 1.0, 0.25, True)
        assert c.regressed

    def test_ratio_high_improvement_passes(self):
        c = compare_metric("a", "m", "ratio_high", 3.0, 5.0, 0.25, False)
        assert not c.regressed

    def test_abs_low_additive_band(self):
        assert not compare_metric("a", "m", "abs_low", 0.02, 0.25, 0.25,
                                  False).regressed
        assert compare_metric("a", "m", "abs_low", 0.02, 0.30, 0.25,
                              False).regressed

    def test_vanished_metric_fails(self):
        c = compare_metric("a", "m", "wall", 2.0, None, 0.25, False)
        assert c.regressed

    def test_absent_on_both_sides_skips(self):
        c = compare_metric("a", "m", "wall", None, None, 0.25, False)
        assert c.skipped and not c.regressed

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            compare_metric("a", "m", "median", 1.0, 1.0, 0.25, False)


class TestGateEndToEnd:
    def test_identical_runs_pass(self, tmp_path, capsys):
        baseline, fresh = write_dirs(tmp_path)
        assert run_gate(baseline, fresh) == 0
        assert "clean" in capsys.readouterr().out

    def test_deliberate_2x_slowdown_fails(self, tmp_path, capsys):
        def slow(docs):
            for leg in docs["BENCH_preprocess.json"]["legs"].values():
                leg["wall_s"] *= 2.0

        baseline, fresh = write_dirs(tmp_path, slow)
        assert run_gate(baseline, fresh) == 1
        out = capsys.readouterr()
        assert "FAIL" in out.out
        assert "regression" in out.err

    def test_ratio_only_ignores_wall_slowdown(self, tmp_path):
        def slow_uniformly(docs):
            # Every leg slower by 2x (a slower runner): ratios unchanged.
            for leg in docs["BENCH_preprocess.json"]["legs"].values():
                leg["wall_s"] *= 2.0

        baseline, fresh = write_dirs(tmp_path, slow_uniformly)
        assert run_gate(baseline, fresh) == 1
        assert run_gate(baseline, fresh, "--ratio-only") == 0

    def test_ratio_only_catches_speedup_drop(self, tmp_path):
        def uncached(docs):
            docs["BENCH_preprocess.json"]["speedup"]["cached"] = 1.0

        baseline, fresh = write_dirs(tmp_path, uncached)
        assert run_gate(baseline, fresh, "--ratio-only") == 1

    def test_tolerance_widens_the_band(self, tmp_path):
        def slightly_slow(docs):
            docs["BENCH_preprocess.json"]["legs"]["serial"]["wall_s"] *= 1.4

        baseline, fresh = write_dirs(tmp_path, slightly_slow)
        assert run_gate(baseline, fresh, "--tolerance", "0.25") == 1
        assert run_gate(baseline, fresh, "--tolerance", "0.5") == 0

    def test_missing_fresh_artifact_fails(self, tmp_path):
        baseline, fresh = write_dirs(tmp_path)
        (fresh / "BENCH_preprocess.json").unlink()
        assert run_gate(baseline, fresh) == 1

    def test_unbaselined_artifact_is_skipped_by_default(self, tmp_path):
        baseline, fresh = write_dirs(tmp_path)
        (baseline / "BENCH_preprocess.json").unlink()
        (baseline / "BENCH_prediction.json").unlink()
        # No baselines at all -> nothing compared -> usage error, not pass.
        assert run_gate(baseline, fresh) == 2

    def test_explicit_artifact_without_baseline_fails(self, tmp_path):
        baseline, fresh = write_dirs(tmp_path)
        (baseline / "BENCH_preprocess.json").unlink()
        assert run_gate(baseline, fresh, "--artifacts",
                        "BENCH_preprocess.json") == 1

    def test_unknown_artifact_name_is_usage_error(self, tmp_path):
        baseline, fresh = write_dirs(tmp_path)
        assert run_gate(baseline, fresh, "--artifacts",
                        "BENCH_nonsense.json") == 2

    def test_missing_baseline_dir_is_usage_error(self, tmp_path):
        assert main(["--baseline-dir", str(tmp_path / "nope")]) == 2

    def test_negative_tolerance_is_usage_error(self, tmp_path):
        baseline, fresh = write_dirs(tmp_path)
        assert run_gate(baseline, fresh, "--tolerance", "-1") == 2


class TestCompareDirs:
    def test_restricts_to_requested_artifacts(self, tmp_path):
        baseline, fresh = write_dirs(tmp_path)
        results = compare_dirs(baseline, fresh, 0.25, False,
                               artifacts=["BENCH_prediction.json"])
        assert {c.artifact for c in results} == {"BENCH_prediction.json"}

    def test_comparison_line_formats(self):
        line = Comparison("BENCH_x.json", "m", "wall", 1.0, 2.0, True).line()
        assert "FAIL" in line and "1.000" in line and "2.000" in line


class TestAllFailuresReported:
    def test_multiple_regressions_all_listed(self, tmp_path, capsys):
        """Every failing metric shows up in one run, not just the first."""
        def wreck(docs):
            docs["BENCH_preprocess.json"]["speedup"]["cached"] = 0.5
            docs["BENCH_preprocess.json"]["legs"]["cached"]["wall_s"] = 9.0
            docs["BENCH_prediction.json"]["clean"]["desync_alarms"] = 1

        baseline, fresh = write_dirs(tmp_path, wreck)
        assert run_gate(baseline, fresh) == 1
        out = capsys.readouterr()
        assert out.out.count("FAIL") == 3
        assert "3 regression(s)" in out.err

    def test_corrupt_artifact_fails_without_hiding_others(
        self, tmp_path, capsys
    ):
        """A parse error is a failing row, not an abort: the other
        artifact's regressions are still reported in the same run."""
        def false_alarm(docs):
            docs["BENCH_prediction.json"]["clean"]["desync_alarms"] = 1

        baseline, fresh = write_dirs(tmp_path, false_alarm)
        (fresh / "BENCH_preprocess.json").write_text("{not json")
        assert run_gate(baseline, fresh) == 1
        out = capsys.readouterr()
        assert "<parse error>" in out.out
        assert "clean.desync_alarms" in out.out
        assert "2 regression(s)" in out.err


class TestUpdateBaselines:
    """``--update-baselines`` re-pins committed baselines from fresh runs."""

    def test_copies_fresh_artifacts_over_baselines(self, tmp_path):
        baseline, fresh = write_dirs(
            tmp_path,
            fresh_mutation=lambda docs: docs["BENCH_prediction.json"][
                "clean"
            ].update(desync_alarms=1),
        )
        updated = update_baselines(baseline, fresh)
        assert "BENCH_prediction.json" in updated
        repinned = json.loads((baseline / "BENCH_prediction.json").read_text())
        assert repinned["clean"]["desync_alarms"] == 1
        # After re-pinning, the gate is clean again.
        assert run_gate(baseline, fresh) == 0

    def test_creates_missing_baseline_dir(self, tmp_path):
        _, fresh = write_dirs(tmp_path)
        target = tmp_path / "new" / "baselines"
        updated = update_baselines(target, fresh)
        assert updated
        assert (target / "BENCH_preprocess.json").exists()

    def test_refuses_corrupt_fresh_artifact(self, tmp_path):
        baseline, fresh = write_dirs(tmp_path)
        (fresh / "BENCH_prediction.json").write_text("{ not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            update_baselines(baseline, fresh)

    def test_cli_flag_reports_and_exits_zero(self, tmp_path, capsys):
        baseline, fresh = write_dirs(
            tmp_path,
            fresh_mutation=lambda docs: docs["BENCH_preprocess.json"][
                "speedup"
            ].update(cached=9.9),
        )
        assert run_gate(baseline, fresh, "--update-baselines") == 0
        out = capsys.readouterr().out
        assert "re-pinned" in out
        doc = json.loads((baseline / "BENCH_preprocess.json").read_text())
        assert doc["speedup"]["cached"] == 9.9

    def test_cli_flag_respects_artifact_restriction(self, tmp_path, capsys):
        baseline, fresh = write_dirs(
            tmp_path,
            fresh_mutation=lambda docs: docs["BENCH_prediction.json"][
                "clean"
            ].update(desync_alarms=1),
        )
        assert run_gate(baseline, fresh, "--update-baselines",
                        "--artifacts", "BENCH_preprocess.json") == 0
        capsys.readouterr()
        untouched = json.loads((baseline / "BENCH_prediction.json").read_text())
        assert untouched == PREDICTION_BASE

    def test_cli_flag_with_nothing_to_pin_is_usage_error(
        self, tmp_path, capsys
    ):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_gate(tmp_path / "base", empty, "--update-baselines") == 2
        assert "nothing re-pinned" in capsys.readouterr().err

    def test_nonconforming_name_is_usage_error(self, tmp_path, capsys):
        _, fresh = write_dirs(tmp_path)
        assert run_gate(tmp_path / "base", fresh, "--update-baselines",
                        "--artifacts", "notes.json") == 2
        assert "no metric spec" in capsys.readouterr().err

    def test_new_artifact_is_pinnable_before_its_spec_lands(self, tmp_path):
        # A newly-introduced BENCH_*.json without a SPECS entry must be
        # acceptable to --update-baselines: the first baseline pin and
        # the spec land in the same change.
        baseline, fresh = write_dirs(tmp_path)
        (fresh / "BENCH_newsub.json").write_text(
            json.dumps({"benchmark": "newsub", "ratio": 2.0})
        )
        updated = update_baselines(
            baseline, fresh, artifacts=["BENCH_newsub.json"]
        )
        assert updated == ["BENCH_newsub.json"]
        doc = json.loads((baseline / "BENCH_newsub.json").read_text())
        assert doc["ratio"] == 2.0

    def test_default_scan_includes_unspecced_bench_artifacts(self, tmp_path):
        baseline, fresh = write_dirs(tmp_path)
        (fresh / "BENCH_newsub.json").write_text(
            json.dumps({"benchmark": "newsub"})
        )
        updated = update_baselines(baseline, fresh)
        assert "BENCH_newsub.json" in updated
        assert "BENCH_preprocess.json" in updated

    def test_new_artifact_must_still_be_valid_json(self, tmp_path):
        baseline, fresh = write_dirs(tmp_path)
        (fresh / "BENCH_newsub.json").write_text("{ nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            update_baselines(baseline, fresh,
                             artifacts=["BENCH_newsub.json"])

    def test_compare_mode_still_rejects_unspecced_names(self, tmp_path):
        # The relaxation is update-only: comparing against an artifact
        # with no metric spec is still a usage error.
        baseline, fresh = write_dirs(tmp_path)
        (fresh / "BENCH_newsub.json").write_text("{}")
        (baseline / "BENCH_newsub.json").write_text("{}")
        assert run_gate(baseline, fresh,
                        "--artifacts", "BENCH_newsub.json") == 2

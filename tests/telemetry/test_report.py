"""Frame-budget attribution: synthetic sweeps and a real traced run."""

import pytest

from repro.telemetry import (
    FRAME_BUDGET_MS,
    FrameBudgetReport,
    SpanTracer,
    attribute_frame,
)
from repro.telemetry.tracer import KIND_SPAN, Span


def span(name, lane, start, dur, player=0, args=None):
    return Span(KIND_SPAN, name, "stage", player, lane, start, dur, args)


class TestAttributeFrame:
    def test_slowest_concurrent_stage_wins(self):
        # Eq. 2 shape: four concurrent stages from t0, merge tail after.
        frame = span("frame", "frame", 0.0, 16.7, args={"frame": 0})
        stages = [
            span("render", "render", 0.0, 8.0),
            span("decode", "decode", 0.0, 11.0),
            span("prefetch", "prefetch", 0.0, 6.0),
            span("sync", "sync", 0.0, 1.0),
            span("merge", "merge", 11.0, 2.0),
        ]
        by = attribute_frame(frame, stages)
        # decode gates [0, 11): it ends last among the concurrent four
        assert by["decode"] == pytest.approx(11.0)
        assert by["merge"] == pytest.approx(2.0)
        assert by["wait"] == pytest.approx(16.7 - 13.0)
        assert "render" not in by
        assert sum(by.values()) == pytest.approx(16.7)

    def test_uncovered_interval_is_wait(self):
        frame = span("frame", "frame", 0.0, 16.7)
        assert attribute_frame(frame, []) == {"wait": pytest.approx(16.7)}

    def test_stage_clipped_to_frame_window(self):
        frame = span("frame", "frame", 10.0, 10.0)
        by = attribute_frame(frame, [span("render", "render", 5.0, 10.0)])
        # only the overlap [10, 15) charges to render
        assert by["render"] == pytest.approx(5.0)
        assert by["wait"] == pytest.approx(5.0)

    def test_attribution_sums_exactly_to_interval(self):
        frame = span("frame", "frame", 0.0, 23.456)
        stages = [
            span("render", "render", 0.0, 7.7),
            span("decode", "decode", 2.0, 13.3),
            span("merge", "merge", 15.3, 4.1),
        ]
        by = attribute_frame(frame, stages)
        assert sum(by.values()) == pytest.approx(23.456, abs=1e-9)


class TestFrameBudgetReport:
    def build(self):
        tracer = SpanTracer()
        # player 0, frame 0: healthy (decode-gated, under budget)
        tracer.complete("frame", 0, "frame", 0.0, 16.6,
                        args={"frame": 0, "fault": "", "cache": "hit"})
        tracer.complete("decode", 0, "decode", 0.0, 11.0, args={"frame": 0})
        # player 0, frame 1: blown budget under a dip, prefetch-gated
        tracer.complete("frame", 0, "frame", 16.6, 40.0,
                        args={"frame": 1, "fault": "dip",
                              "deadline_missed": True, "cache": "fetch"})
        tracer.complete("prefetch", 0, "prefetch", 16.6, 38.0,
                        args={"frame": 1})
        # player 1, frame 0: healthy render-gated
        tracer.complete("frame", 1, "frame", 0.0, 16.6,
                        args={"frame": 0, "fault": ""})
        tracer.complete("render", 1, "render", 0.0, 9.0, args={"frame": 0})
        return FrameBudgetReport.from_records(tracer.records)

    def test_frames_matched_per_player(self):
        report = self.build()
        assert len(report.frames) == 3
        assert report.players() == [0, 1]
        keys = [(f.player, f.frame) for f in report.frames]
        assert keys == [(0, 0), (0, 1), (1, 0)]

    def test_attributions_sum_within_tolerance(self):
        report = self.build()
        assert report.max_residual_ms() < 1e-9
        for f in report.frames:
            assert f.attributed_ms == pytest.approx(f.interval_ms, rel=0.01)

    def test_critical_stage_and_miss_breakdown(self):
        report = self.build()
        blown = next(f for f in report.frames if f.frame == 1)
        assert blown.over_budget and blown.deadline_missed
        assert blown.critical_stage == "prefetch"
        assert blown.fault == "dip"
        assert blown.cache == "fetch"
        assert report.miss_count() == 1
        assert report.miss_breakdown() == [("prefetch", "dip", 1)]

    def test_stage_table_sorted_by_total(self):
        report = self.build()
        rows = report.stage_table()
        assert rows[0].stage == "prefetch"  # 38 ms dwarfs everything
        stages = {r.stage for r in rows}
        assert {"prefetch", "decode", "render", "wait"} <= stages
        assert sum(r.share for r in rows) == pytest.approx(1.0)

    def test_rounding_sliver_adds_no_stage_frame(self):
        tracer = SpanTracer()
        tracer.complete("frame", 0, "frame", 0.0, 16.6, args={"frame": 0})
        tracer.complete("decode", 0, "decode", 0.0, 16.6 - 1e-9,
                        args={"frame": 0})
        report = FrameBudgetReport.from_records(tracer.records)
        assert report.frames[0].by_stage["wait"] > 0.0  # the sliver is there
        assert [(r.stage, r.frames) for r in report.stage_table()] == [
            ("decode", 1)
        ]

    def test_render_mentions_misses(self):
        text = self.build().render()
        assert "frame-budget attribution: 3 frames" in text
        assert "prefetch" in text and "dip" in text
        assert "deadline/budget misses: 1 of 3 frames" in text

    def test_empty_report(self):
        report = FrameBudgetReport.from_records([])
        assert report.frames == []
        assert report.miss_count() == 0
        assert "no frame spans" in report.render()


class TestRealRunAttribution:
    """Acceptance: per-frame attributions from a faulted run sum to the
    frame interval within 1%."""

    def test_faulted_run_attribution(self):
        from repro.faults import FaultSchedule
        from repro.systems import SessionConfig, prepare_artifacts, run_coterie
        from repro.world import load_game

        world = load_game("racing")
        tracer = SpanTracer()
        config = SessionConfig(
            duration_s=2.0, seed=5, tracer=tracer,
            faults=FaultSchedule.parse("dip@400-1100:0.05"),
        )
        artifacts = prepare_artifacts(world, SessionConfig(duration_s=2.0, seed=5))
        run_coterie(world, 2, config, artifacts)
        report = FrameBudgetReport.from_records(tracer.records)
        assert report.frames, "traced run produced no frame spans"
        assert report.players() == [0, 1]
        for f in report.frames:
            assert abs(f.residual_ms) <= 0.01 * f.interval_ms + 1e-9
        # a faulted run attributes some frames to non-trivial stages
        assert {r.stage for r in report.stage_table()} - {"wait"}
        assert FRAME_BUDGET_MS == pytest.approx(16.6667, abs=1e-3)

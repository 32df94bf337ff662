"""Tracer core: span recording, run determinism, and the observation seam."""

import pytest

from repro.systems import SYSTEMS
from repro.telemetry import SpanTracer
from repro.telemetry.tracer import KIND_COUNTER, KIND_INSTANT, KIND_SPAN


class TestSpanTracer:
    def test_complete_records_span(self):
        tracer = SpanTracer()
        tracer.complete("render", 0, "render", 10.0, 5.0,
                        args={"frame": 3})
        assert len(tracer) == 1
        (span,) = tracer.spans()
        assert span.kind == KIND_SPAN
        assert span.name == "render"
        assert span.player == 0
        assert span.lane == "render"
        assert span.start_ms == 10.0
        assert span.dur_ms == 5.0
        assert span.end_ms == 15.0
        assert span.arg("frame") == 3
        assert span.arg("missing", "d") == "d"

    def test_negative_duration_rejected(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            tracer.complete("render", 0, "render", 10.0, -1.0)

    def test_instants_and_counters_partitioned(self):
        tracer = SpanTracer()
        tracer.complete("frame", 0, "frame", 0.0, 16.0)
        tracer.instant("cache.lookup", 1, "cache", 2.0,
                       args={"outcome": "miss"})
        tracer.counter("sim.queue_depth", 4.0, 12)
        assert len(tracer) == 3
        assert [s.name for s in tracer.spans()] == ["frame"]
        (inst,) = tracer.instants()
        assert inst.kind == KIND_INSTANT
        assert inst.player == 1
        counters = [r for r in tracer.records if r.kind == KIND_COUNTER]
        assert counters[0].arg("value") == 12

    def test_lanes_per_player(self):
        tracer = SpanTracer()
        tracer.complete("frame", 0, "frame", 0.0, 16.0)
        tracer.complete("render", 0, "render", 0.0, 8.0)
        tracer.complete("frame", 1, "frame", 0.0, 16.0)
        assert set(tracer.lanes(0)) == {"frame", "render"}
        assert tracer.lanes(1) == ["frame"]

    def test_clear(self):
        tracer = SpanTracer()
        tracer.complete("frame", 0, "frame", 0.0, 16.0)
        tracer.clear()
        assert len(tracer) == 0


class TestTracedRunDeterminism:
    """Tracing must be purely observational: a traced run produces
    bit-identical metrics to an untraced run of the same config."""

    @pytest.fixture(scope="class")
    def game(self):
        from repro.systems import SessionConfig, prepare_artifacts
        from repro.world import load_game

        world = load_game("racing")
        artifacts = prepare_artifacts(world, SessionConfig(duration_s=2.0, seed=11))
        return world, artifacts

    def _run(self, game, tracer):
        from repro.faults import FaultSchedule
        from repro.systems import SessionConfig, run_coterie

        world, artifacts = game
        config = SessionConfig(
            duration_s=2.0, seed=11, tracer=tracer,
            faults=FaultSchedule.parse("dip@500-1200:0.05,stall@300-400:20"),
        )
        return run_coterie(world, 2, config, artifacts)

    def test_metrics_bit_identical_with_tracing(self, game):
        untraced = self._run(game, None)
        tracer = SpanTracer()
        traced = self._run(game, tracer)
        assert len(tracer) > 0
        for a, b in zip(untraced.players, traced.players):
            assert a.metrics == b.metrics
        assert untraced.be_mbps == traced.be_mbps
        assert untraced.fi_kbps == traced.fi_kbps

    def test_faulted_run_covers_stage_lanes(self, game):
        tracer = SpanTracer()
        self._run(game, tracer)
        for player in (0, 1):
            stage_lanes = set(tracer.lanes(player)) - {"frame", "wait"}
            # acceptance bar: >= 4 distinct stage names per player
            assert len(stage_lanes) >= 4, stage_lanes

    def test_sim_span_and_queue_counter_emitted(self, game):
        tracer = SpanTracer()
        self._run(game, tracer)
        sim_spans = [s for s in tracer.spans() if s.name == "sim.run"]
        assert sim_spans and all(s.lane == "sim" for s in sim_spans)
        assert sum(s.arg("dispatched") for s in sim_spans) > 0
        depth = [r for r in tracer.records if r.name == "sim.queue_depth"]
        assert depth  # sampled every TRACE_SAMPLE_EVERY dispatches


class TestObservationSeam:
    """``Session.observer`` is the frame loop's only telemetry object:
    absent unless configured, never steering the run, and laying every
    system's frame out through the same emitter."""

    def test_no_observer_unless_configured(self):
        from repro.systems import SessionConfig
        from repro.systems.base import Session
        from repro.world import load_game

        world = load_game("viking")
        assert Session(world, 2, SessionConfig()).observer is None
        traced = Session(world, 2, SessionConfig(tracer=SpanTracer()))
        assert traced.observer is not None

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_frame_layout_and_twin_per_system(self, system):
        from repro.systems import SessionConfig, run_system
        from repro.telemetry import MetricsHub

        tracer, hub = SpanTracer(), MetricsHub()
        plain = run_system(system, "viking", 2, SessionConfig(duration_s=0.4, seed=1))
        twin = run_system(
            system, "viking", 2,
            SessionConfig(duration_s=0.4, seed=1, tracer=tracer, metrics=hub),
        )

        def key(result):
            return (
                [(p.player_id, p.metrics, p.records) for p in result.players],
                result.be_mbps, result.fi_kbps, result.link_utilization,
            )

        assert key(twin) == key(plain)
        assert hub.series["frames_total"][-1][1] > 0

        stage_lanes = set()
        for player in (0, 1):
            frames = {s.arg("frame"): s for s in tracer.spans("frame", player)}
            assert frames
            for span in tracer.spans(player=player):
                if span.cat != "stage":
                    continue
                frame = frames[span.arg("frame")]
                assert span.start_ms >= frame.start_ms
                assert span.end_ms <= frame.end_ms + 1e-9
                if span.name == "wait":
                    assert span.end_ms == pytest.approx(frame.end_ms, abs=1e-9)
                else:
                    stage_lanes.add(span.lane)
        # Eq. 2's concurrent lanes, or the sequential systems' own.
        pipeline = system not in ("mobile", "thin_client")
        assert ("merge" in stage_lanes) == pipeline
        assert ("render" in stage_lanes) == (system != "thin_client")

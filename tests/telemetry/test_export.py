"""Chrome trace-event JSON: the exporter, its validator and its reader."""

import json
import math

import pytest

from repro.telemetry import (
    SESSION_TRACK,
    FrameBudgetReport,
    SpanTracer,
    read_chrome_trace,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)


def small_trace():
    tracer = SpanTracer()
    tracer.complete("frame", 0, "frame", 0.0, 16.7,
                    args={"frame": 0, "interval_ms": 16.7})
    tracer.complete("render", 0, "render", 0.0, 8.0, args={"frame": 0})
    tracer.complete("frame", 1, "frame", 0.0, 20.0, args={"frame": 0})
    tracer.instant("cache.lookup", 0, "cache", 2.0, args={"outcome": "miss"})
    tracer.counter("sim.queue_depth", 4.0, 12)
    tracer.complete("link.transfer", SESSION_TRACK, "link 0", 1.0, 3.0,
                    cat="net", args={"bytes": 40_000})
    return tracer


class TestChromeTrace:
    def test_events_validate_against_schema(self):
        events = to_chrome_trace(small_trace().records)
        validate_chrome_trace(events)  # must not raise
        phases = {ev["ph"] for ev in events}
        assert {"M", "X", "i", "C"} <= phases

    def test_players_become_processes_lanes_become_threads(self):
        events = to_chrome_trace(small_trace().records)
        names = {
            (ev["pid"], ev["args"]["name"])
            for ev in events
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        # session track is pid 0, players are pid player+1
        assert names == {(0, "session"), (1, "player 0"), (2, "player 1")}
        p0_threads = {
            ev["args"]["name"]
            for ev in events
            if ev["ph"] == "M" and ev["name"] == "thread_name" and ev["pid"] == 1
        }
        assert {"frame", "render", "cache"} <= p0_threads

    def test_timestamps_convert_ms_to_us(self):
        events = to_chrome_trace(small_trace().records)
        render = next(
            ev for ev in events if ev["ph"] == "X" and ev["name"] == "render"
        )
        assert render["ts"] == pytest.approx(0.0)
        assert render["dur"] == pytest.approx(8000.0)

    def test_write_chrome_trace_roundtrips_through_json(self, tmp_path):
        out = tmp_path / "trace.json"
        n = write_chrome_trace(out, small_trace().records)
        events = json.loads(out.read_text())
        assert len(events) == n
        validate_chrome_trace(events)

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([{"name": "no phase"}])
        with pytest.raises(ValueError):
            validate_chrome_trace(
                [{"ph": "X", "pid": 1, "tid": 0, "ts": "oops", "dur": 1,
                  "name": "x"}]
            )


class TestChromeTraceSchema:
    """Every exported event satisfies the trace-event schema invariants."""

    def test_every_event_carries_ph_ts_pid_tid(self, tmp_path):
        out = tmp_path / "trace.json"
        write_chrome_trace(out, small_trace().records)
        events = json.load(out.open())
        for ev in events:
            assert "ph" in ev, ev
            assert isinstance(ev["ts"], (int, float)), ev
            assert isinstance(ev["pid"], int), ev
            assert isinstance(ev["tid"], int), ev

    def test_counter_series_monotone_in_ts(self):
        tracer = SpanTracer()
        for i, t in enumerate([1.0, 2.0, 5.0, 9.0]):
            tracer.counter("sim.queue_depth", t, i)
        events = to_chrome_trace(tracer.records)
        series = [
            ev["ts"] for ev in events
            if ev["ph"] == "C" and ev["name"] == "sim.queue_depth"
        ]
        assert series == sorted(series)
        validate_chrome_trace(events)  # must not raise

    def test_validator_rejects_non_monotone_counter(self):
        events = to_chrome_trace(small_trace().records)
        counters = [ev for ev in events if ev["ph"] == "C"]
        assert counters, "fixture must include a counter event"
        broken = events + [dict(counters[0], ts=counters[0]["ts"] - 1.0)]
        with pytest.raises(ValueError, match="monotone"):
            validate_chrome_trace(broken)

    def test_validator_rejects_missing_pid_tid(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([{"ph": "i", "ts": 0.0, "tid": 0}])
        with pytest.raises(ValueError):
            validate_chrome_trace([{"ph": "i", "ts": 0.0, "pid": 0}])

    def test_metadata_events_carry_ts(self):
        events = to_chrome_trace(small_trace().records)
        assert all("ts" in ev for ev in events if ev["ph"] == "M")


class TestTraceRoundTrip:
    """``read_chrome_trace`` inverts ``write_chrome_trace``."""

    def test_roundtrip_preserves_records(self, tmp_path):
        tracer = small_trace()
        tracer.instant("retry", 1, "net", 3.25)  # args None reads back as {}
        out = tmp_path / "trace.json"
        write_chrome_trace(out, tracer.records)
        back = read_chrome_trace(out)
        assert len(back) == len(tracer.records)
        for a, b in zip(tracer.records, back):
            assert (a.kind, a.name, a.cat, a.player, a.lane) == (
                b.kind, b.name, b.cat, b.player, b.lane
            )
            assert math.isclose(b.start_ms, a.start_ms, rel_tol=1e-12)
            assert math.isclose(b.dur_ms, a.dur_ms, rel_tol=1e-12)
            assert b.args == (a.args or {})

    def test_unknown_phase_refused(self, tmp_path):
        events = to_chrome_trace(small_trace().records)
        events.append(dict(events[-1], ph="B"))
        out = tmp_path / "trace.json"
        out.write_text(json.dumps(events))
        with pytest.raises(ValueError, match=f"event {len(events) - 1}: ph"):
            read_chrome_trace(out)

    @pytest.mark.parametrize("text, says", [
        ('[{"ph": "X", "na', "not JSON"),
        ('{"ph": "X"}', "a JSON object, not a trace-event array"),
        ("[7, 7]", "event 0: a JSON number, not a JSON object"),
        ('[{"ph": "X", "name": "render", "cat": "stage", "pid": 1, "tid": 3,'
         ' "ts": 0, "dur": 1}]', "event 0: pid 1 tid 3 has no thread_name"),
    ], ids=["truncated", "object", "numbers", "no-thread-name"])
    def test_reader_reports_bad_line(self, text, says, tmp_path):
        out = tmp_path / "trace.json"
        out.write_text(text)
        with pytest.raises(ValueError) as info:
            read_chrome_trace(out)
        message = str(info.value)
        assert message.startswith(f"{out}: ") and says in message
        assert "\n" not in message and len(message) < 200

    def test_blank_lines_skipped(self, tmp_path):
        tracer = small_trace()
        out = tmp_path / "trace.json"
        write_chrome_trace(out, tracer.records)
        out.write_text("\n\n" + out.read_text() + "\n\n")
        assert len(read_chrome_trace(out)) == len(tracer.records)

    @pytest.mark.parametrize("system, game, players", [
        ("coterie", "racing", 2),
        ("thin_client", "cts", 2),
    ])
    def test_report_renders_identically_from_trace(
        self, system, game, players, tmp_path, capsys
    ):
        """``repro report TRACE.json`` prints what the live records give."""
        from repro.cli import main
        from repro.faults import FaultSchedule
        from repro.systems import SessionConfig, run_system

        tracer = SpanTracer()
        config = SessionConfig(
            duration_s=2.0, seed=1, tracer=tracer,
            faults=FaultSchedule.parse("dip@500-1500:0.05,stall@500-700:20"),
        )
        run_system(system, game, players, config)
        live = FrameBudgetReport.from_records(tracer.records).render()
        out = tmp_path / "trace.json"
        write_chrome_trace(out, tracer.records)
        assert main(["report", str(out)]) == 0
        assert capsys.readouterr().out == live + "\n"
        assert "miss" in live and "dip" in live

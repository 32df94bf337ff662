"""Units for the sim-time metrics pipeline (hub, SLOs, dashboard, diff)."""

import json

import pytest

from repro.telemetry import (
    DEFAULT_BURN_RULES,
    HIGH_BAD,
    INFO,
    LOW_BAD,
    METRICS_SCHEMA_VERSION,
    BurnRule,
    DiffRule,
    MetricsHub,
    SloEngine,
    SloSpec,
    SpanTracer,
    default_slos,
    diff_dumps,
    emit_slo_instants,
    read_metrics_jsonl,
    render_dashboard,
    render_name,
    rule_for,
    sparkline,
    split_name,
    to_openmetrics,
    write_metrics_jsonl,
)


class TestInstruments:
    def test_counter_is_monotone(self):
        hub = MetricsHub()
        c = hub.counter("frames_total")
        c.inc()
        c.inc(2.0)
        assert c.sample_value() == 3.0
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_counter_set_total_never_goes_backward(self):
        hub = MetricsHub()
        c = hub.counter("evictions_total")
        c.set_total(5.0)
        c.set_total(5.0)  # repeat of the same snapshot is fine
        with pytest.raises(ValueError, match="backwards"):
            c.set_total(3.0)
        assert c.sample_value() == 5.0

    def test_gauge_none_until_set(self):
        hub = MetricsHub()
        g = hub.gauge("displayed_ssim")
        assert g.sample_value() is None
        g.set(0.98)
        assert g.sample_value() == 0.98

    def test_histogram_buckets_and_overflow(self):
        hub = MetricsHub()
        h = hub.histogram("lat_ms", edges=(1.0, 10.0))
        for v in (0.5, 5.0, 500.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]  # <=1, <=10, +Inf
        assert h.count == 3
        assert h.sum == pytest.approx(505.5)

    def test_get_or_create_is_idempotent_and_kind_checked(self):
        hub = MetricsHub()
        assert hub.counter("x_total") is hub.counter("x_total")
        with pytest.raises(TypeError):
            hub.gauge("x_total")

    def test_labels_render_into_the_series_name(self):
        hub = MetricsHub()
        hub.counter("frames_total", labels={"player": "0"}).inc()
        hub.maybe_sample(100.0)
        assert 'frames_total{player="0"}' in hub.series
        base, labels = split_name('frames_total{player="0"}')
        assert base == "frames_total"
        assert labels == {"player": "0"}
        assert render_name(base, labels) == 'frames_total{player="0"}'


class TestSampling:
    def test_boundaries_stamped_retroactively(self):
        hub = MetricsHub(sample_period_ms=100.0)
        hub.counter("frames_total").inc()
        # One call far past several boundaries stamps every boundary.
        hub.maybe_sample(350.0)
        times = [t for t, _ in hub.series["frames_total"]]
        assert times == [100.0, 200.0, 300.0]
        assert hub.samples_taken == 3

    def test_unset_gauges_produce_no_series(self):
        hub = MetricsHub()
        hub.gauge("displayed_ssim")
        hub.maybe_sample(1000.0)
        assert "displayed_ssim" not in hub.series

    def test_probes_run_before_each_boundary(self):
        hub = MetricsHub(sample_period_ms=100.0)
        g = hub.gauge("depth")
        seen = []
        hub.register_probe(lambda: (g.set(42.0), seen.append(1)))
        hub.maybe_sample(200.0)
        assert len(seen) == 2
        assert list(hub.series["depth"]) == [(100.0, 42.0), (200.0, 42.0)]

    def test_ring_capacity_bounds_memory(self):
        hub = MetricsHub(sample_period_ms=1.0, ring_capacity=8)
        hub.counter("c_total").inc()
        hub.maybe_sample(100.0)
        assert len(hub.series["c_total"]) == 8

    def test_on_sample_callback_sees_last_boundary(self):
        hub = MetricsHub(sample_period_ms=100.0)
        hub.counter("c_total").inc()
        stamps = []
        hub.on_sample = stamps.append
        hub.maybe_sample(250.0)
        assert stamps == [200.0]


def _ratio_spec(**overrides):
    kwargs = dict(
        name="miss_rate", kind="ratio", metric="bad_total",
        total="all_total", bound=0.1, window_ms=200.0,
        rules=(BurnRule(short_ms=100.0, long_ms=200.0, threshold=2.0),),
    )
    kwargs.update(overrides)
    return SloSpec(**kwargs)


def _series(pairs):
    return {name: list(samples) for name, samples in pairs.items()}


class TestSloEngine:
    def test_clean_run_attains_fully(self):
        series = _series({
            "all_total": [(100.0, 10.0), (200.0, 20.0), (300.0, 30.0)],
            "bad_total": [(100.0, 0.0), (200.0, 0.0), (300.0, 0.0)],
        })
        result = SloEngine([_ratio_spec()]).evaluate(series)[0]
        assert result.attainment == 1.0
        assert result.alerts == []
        assert result.worst_burn == 0.0

    def test_sustained_burn_fires_one_rising_edge_alert(self):
        # 50% of events bad against a 10% objective: burn 5x >= 2x
        # threshold in both windows, sustained over many boundaries —
        # exactly one alert per rule, not one per boundary.
        all_total = [(100.0 * i, 10.0 * i) for i in range(1, 8)]
        bad_total = [(100.0 * i, 5.0 * i) for i in range(1, 8)]
        series = _series({"all_total": all_total, "bad_total": bad_total})
        result = SloEngine([_ratio_spec()]).evaluate(series)[0]
        assert result.attainment == 0.0
        assert len(result.alerts) == 1
        assert result.alerts[0].burn_short == pytest.approx(5.0)

    def test_short_blip_does_not_fire_the_long_window(self):
        # One bad burst inside a single short window; the long window
        # dilutes it below threshold, so no alert fires.
        series = _series({
            "all_total": [(100.0 * i, 100.0 * i) for i in range(1, 8)],
            "bad_total": [(100.0, 0.0), (200.0, 0.0), (300.0, 21.0),
                          (400.0, 21.0), (500.0, 21.0), (600.0, 21.0),
                          (700.0, 21.0)],
        })
        spec = _ratio_spec(rules=(
            BurnRule(short_ms=100.0, long_ms=400.0, threshold=2.0),
        ))
        result = SloEngine([spec]).evaluate(series)[0]
        assert result.alerts == []

    def test_value_min_burn_counts_deficit(self):
        spec = SloSpec(name="ssim", kind="value_min", metric="ssim",
                       bound=0.9, budget=0.1, window_ms=200.0)
        series = _series({"ssim": [(100.0, 0.95), (200.0, 0.85)]})
        result = SloEngine([spec]).evaluate(series)[0]
        # Window at 200 ms averages (0.95 + 0.85)/2 = 0.9: exactly at
        # bound; window at 100 ms is compliant outright.
        assert result.attainment == 1.0
        series = _series({"ssim": [(100.0, 0.7), (200.0, 0.7)]})
        result = SloEngine([spec]).evaluate(series)[0]
        assert result.attainment == 0.0
        assert result.worst_burn == pytest.approx(2.0)  # 0.2 deficit / 0.1

    def test_value_max_percentile_objective(self):
        spec = SloSpec(name="join_p99", kind="value_max", metric="join_ms",
                       bound=100.0, percentile=99.0, window_ms=1000.0)
        series = _series({
            "join_ms": [(100.0 * i, 50.0) for i in range(1, 10)]
        })
        result = SloEngine([spec]).evaluate(series)[0]
        assert result.attainment == 1.0
        assert result.worst_burn == pytest.approx(0.5)

    def test_absent_series_evaluates_to_none(self):
        result = SloEngine([_ratio_spec()]).evaluate({})[0]
        assert result.attainment is None
        assert result.evaluated == 0

    def test_evaluation_is_deterministic(self):
        series = _series({
            "all_total": [(100.0 * i, 10.0 * i) for i in range(1, 8)],
            "bad_total": [(100.0 * i, 5.0 * i) for i in range(1, 8)],
        })
        a = SloEngine([_ratio_spec()]).evaluate(series)[0]
        b = SloEngine([_ratio_spec()]).evaluate(series)[0]
        assert a.to_dict() == b.to_dict()

    def test_default_slos_cover_the_paper_promises(self):
        names = {s.name for s in default_slos()}
        assert names == {"deadline_miss_rate", "displayed_ssim",
                         "join_latency_p99"}
        assert all(s.rules == DEFAULT_BURN_RULES for s in default_slos())

    def test_emit_slo_instants_lands_alerts_in_the_trace(self):
        series = _series({
            "all_total": [(100.0 * i, 10.0 * i) for i in range(1, 8)],
            "bad_total": [(100.0 * i, 5.0 * i) for i in range(1, 8)],
        })
        results = SloEngine([_ratio_spec()]).evaluate(series)
        tracer = SpanTracer()
        assert emit_slo_instants(tracer, results) == 1
        names = [r.name for r in tracer.records]
        assert "slo.miss_rate" in names
        assert emit_slo_instants(None, results) == 0


class TestOpenMetrics:
    def test_exposition_shape(self):
        hub = MetricsHub()
        hub.counter("frames_total", labels={"player": "0"}).inc(3.0)
        hub.gauge("depth").set(2.0)
        h = hub.histogram("lat_ms", edges=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        text = to_openmetrics(hub)
        assert text.endswith("# EOF\n")
        assert "# TYPE frames counter" in text
        assert 'frames_total{player="0"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "# TYPE lat_ms histogram" in text
        assert 'lat_ms_bucket{le="+Inf"} 2' in text
        assert "lat_ms_count 2" in text
        samples = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert samples and all(len(ln.rsplit(" ", 1)) == 2 for ln in samples)


class TestJsonlDump:
    def _hub(self):
        hub = MetricsHub(sample_period_ms=100.0)
        hub.counter("frames_total").inc(5.0)
        hub.gauge("depth").set(1.5)
        hub.histogram("lat_ms", edges=(1.0,)).observe(0.5)
        hub.maybe_sample(200.0)
        return hub

    def test_round_trip(self, tmp_path):
        hub = self._hub()
        path = tmp_path / "m.jsonl"
        n = write_metrics_jsonl(path, hub, meta={"system": "coterie"})
        dump = read_metrics_jsonl(path)
        assert n == 1 + len(hub.series) + 1  # meta + series + histogram
        assert dump.meta["system"] == "coterie"
        assert dump.meta["sample_period_ms"] == 100.0
        assert dump.series["frames_total"] == [(100.0, 5.0), (200.0, 5.0)]
        assert dump.series_types["frames_total"] == "counter"
        assert dump.histograms["lat_ms"]["count"] == 1
        # Lossless: every sampled series and its type reads back.
        assert dump.series == {
            name: [(round(t, 6), float(v)) for t, v in ring]
            for name, ring in hub.series.items()
        }
        assert dump.series_types == hub.series_types()

    def test_every_record_is_schema_versioned(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_metrics_jsonl(path, self._hub())
        for line in path.read_text().splitlines():
            assert json.loads(line)["v"] == METRICS_SCHEMA_VERSION

    def test_unknown_version_refused(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"v": 99, "kind": "meta"}\n')
        with pytest.raises(ValueError, match="version"):
            read_metrics_jsonl(path)

    def test_bad_line_reported_with_position(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"v": 1, "kind": "meta"}\nnot json\n')
        with pytest.raises(ValueError, match="2"):
            read_metrics_jsonl(path)


class TestDashboard:
    def test_sparkline_normalizes_and_handles_edges(self):
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(sparkline(list(range(100)), width=10)) == 10
        with pytest.raises(ValueError):
            sparkline([1.0], width=0)

    def test_render_dashboard_lists_series_and_slos(self):
        hub = MetricsHub(sample_period_ms=100.0)
        hub.counter("frames_total").inc()
        hub.maybe_sample(300.0)
        results = SloEngine([_ratio_spec()]).evaluate(
            {"all_total": [(100.0, 10.0)], "bad_total": [(100.0, 0.0)]}
        )
        out = render_dashboard(hub, slo_results=results)
        assert "frames_total" in out
        assert "slo miss_rate" in out


def _dump(tmp_path, name, series, types=None):
    hub = MetricsHub(sample_period_ms=100.0)
    path = tmp_path / name
    records = [{"v": 1, "kind": "meta", "sample_period_ms": 100.0}]
    for sname, samples in series.items():
        records.append({
            "v": 1, "kind": "series", "name": sname,
            "type": (types or {}).get(sname, "gauge"),
            "samples": samples,
        })
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    del hub
    return read_metrics_jsonl(path)


class TestDiff:
    def test_identical_dumps_are_clean(self, tmp_path):
        series = {"frames_total": [[100.0, 10.0], [200.0, 20.0]],
                  "depth": [[100.0, 2.0], [200.0, 3.0]]}
        a = _dump(tmp_path, "a.jsonl", series,
                  types={"frames_total": "counter"})
        b = _dump(tmp_path, "b.jsonl", series,
                  types={"frames_total": "counter"})
        rows = diff_dumps(a, b)
        assert not any(r.regressed for r in rows)

    def test_injected_counter_regression_flags(self, tmp_path):
        a = _dump(tmp_path, "a.jsonl",
                  {"frames_total": [[100.0, 100.0]]},
                  types={"frames_total": "counter"})
        b = _dump(tmp_path, "b.jsonl",
                  {"frames_total": [[100.0, 50.0]]},
                  types={"frames_total": "counter"})
        rows = diff_dumps(a, b)
        row = next(r for r in rows if r.name == "frames_total")
        assert row.regressed  # frames fell: LOW_BAD

    def test_missing_series_is_always_a_regression(self, tmp_path):
        a = _dump(tmp_path, "a.jsonl", {"depth": [[100.0, 1.0]]})
        b = _dump(tmp_path, "b.jsonl", {})
        rows = diff_dumps(a, b)
        assert rows[0].regressed
        assert "missing in run B" in rows[0].note

    def test_info_direction_never_fails(self, tmp_path):
        a = _dump(tmp_path, "a.jsonl", {"unruled_gauge": [[100.0, 1.0]]})
        b = _dump(tmp_path, "b.jsonl", {"unruled_gauge": [[100.0, 9999.0]]})
        rows = diff_dumps(a, b)
        assert rows[0].direction == INFO
        assert not rows[0].regressed

    def test_rule_lookup_is_longest_prefix_on_base_name(self):
        rule = rule_for('deadline_misses_total{player="3"}')
        assert rule is not None and rule.direction == HIGH_BAD
        rule = rule_for("cache_hit_ratio")
        assert rule is not None and rule.direction == LOW_BAD
        assert rule_for("no_such_metric") is None

    def test_threshold_combines_abs_and_rel(self):
        rule = DiffRule("x", HIGH_BAD, tolerance_abs=1.0, tolerance_rel=0.1)
        assert rule.threshold(100.0) == pytest.approx(11.0)

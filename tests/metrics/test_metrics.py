"""Tests for the metrics package: collector, models, MOS study, stats."""

import pytest

from repro.metrics import (
    BATTERY_WH,
    CpuModel,
    FrameRecord,
    MOS_LABELS,
    MetricsCollector,
    PIXEL2_THERMAL_LIMIT_C,
    PowerModel,
    ThermalModel,
    histogram,
    mean,
    mos_for_jump,
    percentile,
    run_user_study,
    trace_jumps,
)


def record(t, interval=16.7, render=8.0, resp=15.0, **kw):
    return FrameRecord(
        t_ms=t, interval_ms=interval, render_ms=render, responsiveness_ms=resp, **kw
    )


class TestFrameRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            record(0, interval=0)
        with pytest.raises(ValueError):
            record(0, render=-1)


class TestCollector:
    def test_fps_capped_at_60(self):
        c = MetricsCollector()
        for i in range(10):
            c.add(record(i * 10.0, interval=10.0))
        assert c.fps() == 60.0

    def test_fps_from_intervals(self):
        c = MetricsCollector()
        for i in range(10):
            c.add(record(i * 40.0, interval=40.0))
        assert c.fps() == pytest.approx(25.0)

    def test_empty_collector_raises(self):
        with pytest.raises(ValueError):
            MetricsCollector().fps()

    def test_net_delay_only_over_fetching_frames(self):
        c = MetricsCollector()
        c.add(record(0, net_delay_ms=10.0, frame_bytes=100_000))
        c.add(record(17))  # cache hit: no bytes, no net delay
        assert c.net_delay_ms() == pytest.approx(10.0)

    def test_net_delay_zero_without_traffic(self):
        c = MetricsCollector()
        c.add(record(0))
        assert c.net_delay_ms() == 0.0

    def test_frame_kb(self):
        c = MetricsCollector()
        c.add(record(0, frame_bytes=550_000))
        c.add(record(17, frame_bytes=0))
        assert c.mean_frame_kb() == pytest.approx(550.0)

    def test_gpu_utilization(self):
        c = MetricsCollector()
        c.add(record(0, interval=16.0, render=8.0))
        c.add(record(16, interval=16.0, render=4.0))
        assert c.gpu_utilization() == pytest.approx(12.0 / 32.0)

    def test_cache_hit_ratio(self):
        c = MetricsCollector()
        c.add(record(0, cache_hit=True))
        c.add(record(17, cache_hit=True))
        c.add(record(34, cache_hit=False))
        assert c.cache_hit_ratio() == pytest.approx(2 / 3)

    def test_cache_hit_ratio_none_without_cache(self):
        c = MetricsCollector()
        c.add(record(0))
        assert c.cache_hit_ratio() is None

    def test_summary_fields(self):
        c = MetricsCollector()
        c.add(record(0, frame_bytes=100_000, net_delay_ms=5.0, displayed_ssim=0.95))
        s = c.summary(cpu_utilization=0.3)
        assert s.cpu_utilization == 0.3
        assert s.frames == 1
        assert s.mean_ssim == pytest.approx(0.95)


class TestCpuModel:
    def test_mobile_profile(self):
        # Mobile: no net, no decode, no cache -> Table 1's 9-19% range.
        cpu = CpuModel().utilization(gpu_utilization=0.95)
        assert 0.08 < cpu < 0.20

    def test_multi_furion_profile(self):
        # Streaming ~276 Mbps, decoding, light GPU -> Table 1's ~23-33%.
        cpu = CpuModel().utilization(
            gpu_utilization=0.14, net_mbps=276, decoding=True, n_players=2
        )
        assert 0.20 < cpu < 0.35

    def test_coterie_profile(self):
        # Little traffic but cache enabled -> Table 8's ~27-32%.
        cpu = CpuModel().utilization(
            gpu_utilization=0.5,
            net_mbps=26,
            decoding=True,
            cache_enabled=True,
            n_players=2,
        )
        assert 0.22 < cpu < 0.36

    def test_validation(self):
        with pytest.raises(ValueError):
            CpuModel().utilization(gpu_utilization=1.5)
        with pytest.raises(ValueError):
            CpuModel().utilization(0.5, net_mbps=-1)
        with pytest.raises(ValueError):
            CpuModel(game_logic=-0.1)

    def test_caps_at_one(self):
        cpu = CpuModel(per_mbps=1.0).utilization(0.5, net_mbps=500)
        assert cpu == 1.0


class TestPowerModel:
    def test_coterie_draw_near_4w(self):
        # Fig 12: steady ~4 W under Coterie load.
        draw = PowerModel().draw_w(cpu_utilization=0.32, gpu_utilization=0.55, net_mbps=26)
        assert 3.2 < draw < 4.5

    def test_battery_life_exceeds_2_5_hours(self):
        model = PowerModel()
        draw = model.draw_w(0.32, 0.55, 26)
        assert model.battery_life_hours(draw) > 2.5

    def test_monotone_in_load(self):
        m = PowerModel()
        assert m.draw_w(0.9, 0.9, 200) > m.draw_w(0.1, 0.1, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerModel().draw_w(1.5, 0.5)
        with pytest.raises(ValueError):
            PowerModel().battery_life_hours(0)
        with pytest.raises(ValueError):
            PowerModel(base_w=-1)

    def test_battery_constant(self):
        assert BATTERY_WH == pytest.approx(2.770 * 3.85)


class TestThermalModel:
    def test_rises_toward_steady_state(self):
        model = ThermalModel()
        steady = model.steady_state_c(4.0)
        for _ in range(100):
            model.step(4.0, dt_s=30.0)
        assert model.temperature_c == pytest.approx(steady, abs=0.5)

    def test_stays_under_limit_at_4w(self):
        # Fig 12: SoC temperature stays under the 52 C Pixel 2 limit.
        model = ThermalModel()
        for _ in range(60):  # 30 minutes
            model.step(4.0, dt_s=30.0)
        assert model.temperature_c < PIXEL2_THERMAL_LIMIT_C

    def test_gradual_rise(self):
        model = ThermalModel()
        t1 = model.step(4.0, dt_s=30.0)
        t2 = model.step(4.0, dt_s=30.0)
        assert model.ambient_c < t1 < t2

    def test_validation(self):
        with pytest.raises(ValueError):
            ThermalModel(tau_s=0)
        with pytest.raises(ValueError):
            ThermalModel().step(4.0, dt_s=0)
        with pytest.raises(ValueError):
            ThermalModel().steady_state_c(-1)


class TestQoe:
    def test_mos_thresholds(self):
        assert mos_for_jump(0.0) == 5
        assert mos_for_jump(0.06) == 4
        assert mos_for_jump(0.12) == 3
        assert mos_for_jump(0.2) == 2
        assert mos_for_jump(0.5) == 1
        with pytest.raises(ValueError):
            mos_for_jump(-0.1)

    def test_trace_jumps(self):
        assert trace_jumps([0.95, 1.0]) == pytest.approx([0.05, 0.0])
        with pytest.raises(ValueError):
            trace_jumps([1.5])

    def test_high_similarity_study_scores_high(self):
        # Six traces whose switches are all SSIM >= 0.985 (Coterie-like).
        traces = [[0.99, 0.988, 0.992] for _ in range(6)]
        result = run_user_study(traces, n_participants=12, seed=1)
        assert result.percentages[5] + result.percentages[4] > 85.0
        assert result.mean_score > 4.2

    def test_low_similarity_study_scores_low(self):
        traces = [[0.7, 0.8] for _ in range(6)]
        result = run_user_study(traces, n_participants=12, seed=1)
        assert result.mean_score < 3.0

    def test_percentages_sum_to_100(self):
        result = run_user_study([[0.95]], n_participants=5, seed=0)
        assert sum(result.percentages.values()) == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_user_study([])
        with pytest.raises(ValueError):
            run_user_study([[0.9]], n_participants=0)

    def test_mos_labels_complete(self):
        assert set(MOS_LABELS) == {1, 2, 3, 4, 5}


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_percentile(self):
        values = list(range(101))
        assert percentile(values, 50) == pytest.approx(50.0)
        assert percentile(values, 99) == pytest.approx(99.0)
        with pytest.raises(ValueError):
            percentile(values, 101)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_histogram(self):
        counts = histogram([0.5, 1.5, 1.6, 2.5], edges=[0, 1, 2, 3])
        assert counts == [1, 2, 1]
        with pytest.raises(ValueError):
            histogram([1.0], edges=[0])


class TestResourceTimeline:
    def test_thirty_minute_session_shape(self):
        from repro.metrics import build_timeline

        timeline = build_timeline(cpu=0.30, gpu=0.55, net_mbps=26.0)
        assert timeline.duration_s == pytest.approx(1800.0)
        assert len(timeline.points) == 31
        assert 3.0 < timeline.mean_power_w < 4.8
        assert timeline.peak_temperature_c < PIXEL2_THERMAL_LIMIT_C
        assert timeline.points[-1].battery_fraction > 0.0

    def test_temperature_rises_monotonically_from_cold(self):
        from repro.metrics import build_timeline

        timeline = build_timeline(cpu=0.3, gpu=0.6, net_mbps=30.0)
        temps = [p.temperature_c for p in timeline.points]
        assert all(a <= b + 1e-9 for a, b in zip(temps, temps[1:]))

    def test_battery_drains_linearly(self):
        from repro.metrics import build_timeline

        timeline = build_timeline(cpu=0.3, gpu=0.6, net_mbps=30.0)
        fractions = [p.battery_fraction for p in timeline.points]
        assert fractions[0] == 1.0
        assert fractions[-1] < fractions[0]
        drops = [a - b for a, b in zip(fractions, fractions[1:])]
        assert max(drops) - min(drops) < 1e-9  # constant draw

    def test_extreme_load_throttles(self):
        from repro.metrics import build_timeline

        timeline = build_timeline(cpu=1.0, gpu=1.0, net_mbps=400.0)
        assert timeline.peak_temperature_c >= PIXEL2_THERMAL_LIMIT_C

    def test_validation(self):
        from repro.metrics import build_timeline

        with pytest.raises(ValueError):
            build_timeline(cpu=2.0, gpu=0.5, net_mbps=0)
        with pytest.raises(ValueError):
            build_timeline(cpu=0.5, gpu=0.5, net_mbps=0, duration_s=0)


class TestRecoveryEdgeCases:
    """recovery_ms boundary behavior around window placement."""

    def test_recovery_on_exact_window_tail(self):
        # Exactly `window` healthy frames at the very end of the record
        # stream: the last (and only fitting) window must still count.
        c = MetricsCollector()
        for i in range(5):  # slow frames after the fault
            c.add(record(1000.0 + i * 40.0, interval=40.0))
        base = 1000.0 + 5 * 40.0
        for i in range(10):  # exactly window=10 healthy frames
            c.add(record(base + i * 16.0, interval=16.0))
        got = c.recovery_ms(after_ms=1000.0, window=10)
        assert got is not None
        last_t = base + 9 * 16.0
        assert got == pytest.approx(last_t - 1000.0)

    def test_after_ms_beyond_last_record(self):
        c = MetricsCollector()
        for i in range(40):
            c.add(record(i * 16.0, interval=16.0))
        assert c.recovery_ms(after_ms=10_000.0, window=10) is None

    def test_tail_shorter_than_window(self):
        c = MetricsCollector()
        for i in range(40):
            c.add(record(i * 16.0, interval=16.0))
        # only 5 records at/after after_ms — can't fill a 10-frame window
        assert c.recovery_ms(after_ms=35 * 16.0, window=10) is None

    def test_single_deadline_miss_poisons_window(self):
        c = MetricsCollector()
        for i in range(10):
            c.add(record(
                i * 16.0, interval=16.0, deadline_missed=(i == 4)
            ))
        # Fast intervals throughout, but every 10-frame window contains
        # the one missed frame, so no recovery within these records.
        assert c.recovery_ms(after_ms=0.0, window=10) is None
        # Once windows clear of the miss exist, recovery is found and is
        # the first window NOT containing the missed frame.
        for i in range(10, 20):
            c.add(record(i * 16.0, interval=16.0))
        got = c.recovery_ms(after_ms=0.0, window=10)
        assert got == pytest.approx(14 * 16.0)

    def test_recovery_at_after_ms_clamps_to_zero(self):
        c = MetricsCollector()
        for i in range(10):
            c.add(record(i * 16.0, interval=16.0))
        got = c.recovery_ms(after_ms=9 * 16.0 + 100.0, window=1)
        assert got is None  # nothing at/after after_ms

    def test_validation(self):
        c = MetricsCollector()
        c.add(record(0.0))
        with pytest.raises(ValueError):
            c.recovery_ms(0.0, target_fps=0.0)
        with pytest.raises(ValueError):
            c.recovery_ms(0.0, window=0)


class TestTailLatencies:
    def test_tail_summary_triple(self):
        from repro.metrics import tail_summary

        values = [float(v) for v in range(1, 101)]
        p50, p95, p99 = tail_summary(values)
        assert p50 == pytest.approx(percentile(values, 50))
        assert p95 == pytest.approx(percentile(values, 95))
        assert p99 == pytest.approx(percentile(values, 99))
        assert p50 <= p95 <= p99

    def test_percentiles_batch_matches_single(self):
        from repro.metrics import percentiles

        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        batch = percentiles(values, (10.0, 50.0, 90.0))
        assert batch == pytest.approx(
            [percentile(values, q) for q in (10.0, 50.0, 90.0)]
        )
        with pytest.raises(ValueError):
            percentiles([], (50.0,))
        with pytest.raises(ValueError):
            percentiles(values, (50.0, 101.0))

    def test_summary_fills_tail_fields(self):
        c = MetricsCollector()
        # 99 fast frames and one hitch: mean barely moves, p99 screams.
        for i in range(99):
            c.add(record(i * 16.0, interval=16.0, resp=20.0))
        c.add(record(99 * 16.0 + 84.0, interval=100.0, resp=120.0))
        m = c.summary(cpu_utilization=0.5)
        assert m.p50_inter_frame_ms == pytest.approx(16.0)
        assert m.p95_inter_frame_ms < m.p99_inter_frame_ms
        assert m.p99_inter_frame_ms > 16.0
        assert m.p99_responsiveness_ms > m.p95_responsiveness_ms >= 20.0
        assert m.p99_responsiveness_ms <= 120.0

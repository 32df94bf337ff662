"""Tests for the shared simulator resource (processor sharing)."""

import pytest

from repro.sim import FluidShareServer, Simulator


class TestFluidShareServer:
    def test_single_flow_full_rate(self):
        sim = Simulator()
        server = FluidShareServer(sim, capacity=10.0)  # 10 units/ms
        done = server.submit(100.0)
        sim.run()
        assert done.triggered
        assert done.value == pytest.approx(10.0)  # 100 units / 10 per ms

    def test_two_concurrent_flows_share_capacity(self):
        sim = Simulator()
        server = FluidShareServer(sim, capacity=10.0)
        d1 = server.submit(100.0)
        d2 = server.submit(100.0)
        sim.run()
        # Each gets 5 units/ms while both are active -> both take 20 ms.
        assert d1.value == pytest.approx(20.0)
        assert d2.value == pytest.approx(20.0)

    def test_short_flow_speeds_up_after_long_flow_joins_late(self):
        sim = Simulator()
        server = FluidShareServer(sim, capacity=10.0)
        finish_times = {}

        def submit_at(t, name, work):
            def go():
                done = server.submit(work)

                def record():
                    yield done
                    finish_times[name] = sim.now

                sim.spawn(record())

            sim.schedule(t, go)

        # Flow A: 100 units at t=0. Alone until t=5 (50 done), then shares.
        submit_at(0.0, "a", 100.0)
        # Flow B: 25 units at t=5. Shares at 5/ms -> done at t=10.
        submit_at(5.0, "b", 25.0)
        sim.run()
        assert finish_times["b"] == pytest.approx(10.0)
        # A: 50 drained alone by t=5, 25 more shared by t=10, 25 left at
        # full rate again -> done at t=12.5.
        assert finish_times["a"] == pytest.approx(12.5)

    def test_overhead_delays_start(self):
        sim = Simulator()
        server = FluidShareServer(sim, capacity=10.0, overhead_ms=3.0)
        done = server.submit(100.0)
        times = []

        def proc():
            yield done
            times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [pytest.approx(13.0)]

    def test_zero_work_completes_immediately(self):
        sim = Simulator()
        server = FluidShareServer(sim, capacity=1.0)
        done = server.submit(0.0)
        sim.run()
        assert done.triggered

    def test_negative_work_raises(self):
        sim = Simulator()
        server = FluidShareServer(sim, capacity=1.0)
        with pytest.raises(ValueError):
            server.submit(-1.0)

    def test_bad_capacity_raises(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FluidShareServer(sim, capacity=0.0)
        with pytest.raises(ValueError):
            FluidShareServer(sim, capacity=1.0, overhead_ms=-1.0)

    def test_n_flows_n_times_slower(self):
        # The paper's scaling bottleneck in miniature: N concurrent
        # prefetches each take ~N times longer than a lone transfer.
        for n in (1, 2, 4):
            sim = Simulator()
            server = FluidShareServer(sim, capacity=10.0)
            dones = [server.submit(50.0) for _ in range(n)]
            sim.run()
            for done in dones:
                assert done.value == pytest.approx(5.0 * n)

    def test_utilization_tracks_busy_time(self):
        sim = Simulator()
        server = FluidShareServer(sim, capacity=10.0)
        server.submit(50.0)  # busy 0..5
        sim.run_until(10.0)
        assert server.utilization(10.0) == pytest.approx(0.5)

    def test_utilization_query_is_read_only(self):
        """Sampling mid-flow reports the open busy interval without
        draining it: a probe must not split the drain arithmetic, or a
        metered run's sums differ from the unmetered run's in the last bit."""
        sim = Simulator()
        server = FluidShareServer(sim, capacity=3.0)
        done = server.submit(9.0)  # busy 0..3
        seen = []

        def probe():
            before = (server.busy_time, server.total_work_done)
            seen.append(server.utilization(sim.now))
            assert (server.busy_time, server.total_work_done) == before

        for t in (0.7, 1.9, 4.0):
            sim.schedule(t, probe)
        sim.run_until(6.0)
        assert seen == [1.0, 1.0, 0.75]
        assert done.value == 3.0

    def test_utilization_bad_horizon(self):
        sim = Simulator()
        server = FluidShareServer(sim, capacity=10.0)
        with pytest.raises(ValueError):
            server.utilization(0.0)

    def test_float_dust_completes_at_large_sim_time(self):
        # Regression: a flow left with a few ulps of residual work at large
        # sim.now rearms with a delay smaller than one clock ulp, so the
        # completion fires at the same timestamp, drains nothing, and the
        # server livelocks rearming forever.  The timer firing un-superseded
        # must force the soonest flow to finish.
        sim = Simulator()
        server = FluidShareServer(sim, capacity=0.5)
        sim.schedule(40_000.0, lambda: None)
        sim.run()  # move the clock far enough that ulp(now) >> dust/rate
        done = server.submit(1.0)
        flow = next(iter(server._flows.values()))
        flow.remaining = 5e-12  # inject the dust _advance() can leave behind
        server._reschedule_completion()
        sim.run()  # hangs forever without the forced-completion path
        assert done.triggered
        assert server.active_flows == 0

    def test_flows_complete_across_many_clock_magnitudes(self):
        # The completion path must terminate whether the clock is at 0 or
        # deep into a long session where ulp(now) dwarfs residual work.
        for start in (0.0, 1e3, 1e6, 1e9):
            sim = Simulator()
            server = FluidShareServer(sim, capacity=0.125)
            if start:
                sim.schedule(start, lambda: None)
                sim.run()
            events = [server.submit(w) for w in (0.3, 1.7, 0.0001)]
            sim.run()
            assert all(ev.triggered for ev in events)
            assert server.active_flows == 0

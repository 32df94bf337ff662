"""Tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Event, SimulationError, Simulator, all_of


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(9.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_fifo_order(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: log.append(n))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_at_horizon(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(10.0, lambda: log.append(10))
        sim.run_until(5.0)
        assert log == [1]
        assert sim.now == 5.0
        sim.run()
        assert log == [1, 10]

    def test_run_until_past_raises(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(2.0, lambda: log.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 3.0)]


class TestEvents:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        ev = sim.event()
        got = []

        def proc():
            value = yield ev
            got.append(value)

        sim.spawn(proc())
        sim.schedule(2.0, lambda: ev.succeed("payload"))
        sim.run()
        assert got == ["payload"]

    def test_double_succeed_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_timeout_event(self):
        sim = Simulator()
        times = []

        def proc():
            yield sim.timeout(4.0)
            times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [4.0]


class TestProcesses:
    def test_yield_delay(self):
        sim = Simulator()
        trace = []

        def proc():
            trace.append(sim.now)
            yield 2.0
            trace.append(sim.now)
            yield 3.0
            trace.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert trace == [0.0, 2.0, 5.0]

    def test_completion_event_carries_return(self):
        sim = Simulator()

        def proc():
            yield 1.0
            return 42

        done = sim.spawn(proc())
        sim.run()
        assert done.triggered
        assert done.value == 42

    def test_waiting_on_already_triggered_event(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("early")
        got = []

        def proc():
            value = yield ev
            got.append(value)

        sim.spawn(proc())
        sim.run()
        assert got == ["early"]

    def test_negative_yield_raises(self):
        sim = Simulator()

        def proc():
            yield -1.0

        with pytest.raises(SimulationError):
            sim.spawn(proc())
            sim.run()

    def test_bad_yield_type_raises(self):
        sim = Simulator()

        def proc():
            yield "nope"

        with pytest.raises(SimulationError):
            sim.spawn(proc())
            sim.run()

    def test_two_processes_interleave(self):
        sim = Simulator()
        log = []

        def ticker(name, period):
            for _ in range(3):
                yield period
                log.append((name, sim.now))

        sim.spawn(ticker("fast", 1.0))
        sim.spawn(ticker("slow", 2.5))
        sim.run()
        assert log == [
            ("fast", 1.0),
            ("fast", 2.0),
            ("slow", 2.5),
            ("fast", 3.0),
            ("slow", 5.0),
            ("slow", 7.5),
        ]


class TestAllOf:
    def test_fires_at_latest(self):
        sim = Simulator()
        events = [sim.timeout(1.0), sim.timeout(5.0), sim.timeout(3.0)]
        fired_at = []

        def proc():
            yield all_of(sim, events)
            fired_at.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert fired_at == [5.0]

    def test_empty_list_fires_immediately(self):
        sim = Simulator()
        fired = []

        def proc():
            value = yield all_of(sim, [])
            fired.append((sim.now, value))

        sim.spawn(proc())
        sim.run()
        assert fired == [(0.0, [])]

    def test_collects_values_in_order(self):
        sim = Simulator()
        e1, e2 = sim.event(), sim.event()
        sim.schedule(2.0, lambda: e2.succeed("second"))
        sim.schedule(1.0, lambda: e1.succeed("first"))
        results = []

        def proc():
            values = yield all_of(sim, [e1, e2])
            results.append(values)

        sim.spawn(proc())
        sim.run()
        assert results == [["first", "second"]]


class TestAlreadyTriggeredCombinators:
    """any_of/all_of built over events that have already fired."""

    def test_any_of_with_pre_triggered_event(self):
        from repro.sim import any_of

        sim = Simulator()
        done = sim.event()
        done.succeed("cached")
        pending = sim.timeout(50.0)
        results = []

        def proc():
            winner, value = yield any_of(sim, [pending, done])
            results.append((sim.now, winner is done, value))

        sim.spawn(proc())
        sim.run()
        # the pre-triggered event wins the race at t=0, not at 50 ms
        assert results == [(0.0, True, "cached")]

    def test_any_of_with_all_pre_triggered(self):
        from repro.sim import any_of

        sim = Simulator()
        e1, e2 = sim.event(), sim.event()
        e1.succeed("first")
        e2.succeed("second")
        results = []

        def proc():
            winner, value = yield any_of(sim, [e1, e2])
            results.append((winner is e1, value))

        sim.spawn(proc())
        sim.run()
        # deterministic FIFO ordering: the first listed event wins
        assert results == [(True, "first")]

    def test_all_of_with_pre_triggered_constituent(self):
        sim = Simulator()
        done = sim.event()
        done.succeed("ready")
        later = sim.timeout(3.0)
        results = []

        def proc():
            values = yield all_of(sim, [done, later])
            results.append((sim.now, values))

        sim.spawn(proc())
        sim.run()
        # still waits for the latest constituent, values stay in order
        assert results == [(3.0, ["ready", None])]

    def test_all_of_with_all_pre_triggered(self):
        sim = Simulator()
        e1, e2 = sim.event(), sim.event()
        e1.succeed(1)
        e2.succeed(2)
        results = []

        def proc():
            values = yield all_of(sim, [e1, e2])
            results.append((sim.now, values))

        sim.spawn(proc())
        sim.run()
        assert results == [(0.0, [1, 2])]

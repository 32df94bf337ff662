"""Discrete-event simulation core.

Everything time-dependent in the reproduction — WiFi transfers, the
per-frame client pipeline, multi-player contention — runs on this engine.
Time is in **milliseconds** throughout the code base (the paper's QoE
numbers are all ms-scale: 16.7 ms frame budget, 10-25 ms motion-to-photon).

The engine supports two styles:

* callback events scheduled with :meth:`Simulator.schedule`, and
* generator *processes* (:meth:`Simulator.spawn`) that ``yield`` either a
  float delay or an :class:`Event` to wait on — enough to express the
  concurrent 4-task rendering pipeline of §5.1 directly.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional, Tuple

if TYPE_CHECKING:
    from ..telemetry import MetricsHub, SpanTracer

ProcessGen = Generator[Any, Any, None]


class SimulationError(RuntimeError):
    """Raised for scheduling misuse (e.g. scheduling in the past)."""


class Event:
    """A one-shot occurrence that processes can wait on.

    Mirrors simpy's event in miniature: an event is *triggered* at most
    once, optionally carrying a value delivered to every waiter.
    """

    __slots__ = ("sim", "_waiters", "triggered", "value")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._waiters: List[Tuple[ProcessGen, "Event"]] = []
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> None:
        """Trigger the event, delivering ``value`` to every waiter."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for proc, done in waiters:
            # Resume via the scheduler (not synchronously) so that actions
            # sharing a timestamp run in deterministic FIFO order and
            # succeed() is never re-entered mid-callback.
            self.sim.schedule(
                0.0, lambda p=proc, d=done: self.sim._step_process(p, value, d)
            )

    def _add_waiter(self, proc: ProcessGen, done: "Event") -> None:
        self._waiters.append((proc, done))


class Simulator:
    """An event-driven simulator with a monotonically advancing clock.

    ``tracer`` (a :class:`repro.telemetry.SpanTracer`, or None) hooks the
    dispatch loop: every run emits a ``sim.run`` span with the dispatched
    event count, and the event-queue depth is sampled as a counter every
    :data:`Simulator.TRACE_SAMPLE_EVERY` dispatches.  ``metrics`` (a
    :class:`repro.telemetry.MetricsHub`, or None) is *pumped* from the
    same loop — every :data:`Simulator.METRICS_PUMP_EVERY` dispatches the
    hub gets a chance to stamp any sim-time sample boundaries the clock
    has crossed (retroactively, at exact boundary times), and a
    ``sim_queue_depth`` gauge probe keeps queue depth in the sampled
    series.  Both hooks are purely observational — they never schedule
    events or alter dispatch order — and when absent cost one
    predictable branch per dispatch.
    """

    # Queue-depth counter sampling period, in dispatched events.
    TRACE_SAMPLE_EVERY = 256
    # Metrics pump period, in dispatched events.  Samples are stamped at
    # sim-time boundaries regardless, so this only bounds how much sim
    # time can elapse between stamping passes, not the sample times.
    METRICS_PUMP_EVERY = 64

    def __init__(
        self, tracer: Optional[SpanTracer] = None, metrics: Optional[MetricsHub] = None
    ) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._running = False
        self.tracer = tracer
        self.metrics = metrics
        if metrics is not None:
            depth_gauge = metrics.gauge("sim_queue_depth")
            queue = self._queue
            metrics.register_probe(lambda: depth_gauge.set(float(len(queue))))
        self.dispatched = 0

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` after ``delay`` ms of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ms in the past")
        heapq.heappush(self._queue, (self.now + delay, next(self._counter), action))

    def event(self) -> Event:
        """A fresh untriggered event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float) -> Event:
        """An event that triggers after ``delay`` ms."""
        ev = self.event()
        self.schedule(delay, lambda: ev.succeed())
        return ev

    # ------------------------------------------------------------------
    # Generator processes
    # ------------------------------------------------------------------

    def spawn(self, process: ProcessGen) -> Event:
        """Start a generator process; returns an event fired at completion.

        The process may ``yield``:

        * a non-negative ``float``/``int`` — sleep for that many ms;
        * an :class:`Event` — suspend until it triggers (receiving its
          value as the result of the ``yield``).
        """
        done = self.event()
        self._step_process(process, None, done)
        return done

    def _step_process(self, proc: ProcessGen, send_value: Any, done: Event) -> None:
        try:
            yielded = proc.send(send_value)
        except StopIteration as stop:
            done.succeed(stop.value)
            return
        if isinstance(yielded, Event):
            if yielded.triggered:
                self.schedule(
                    0.0, lambda: self._step_process(proc, yielded.value, done)
                )
            else:
                yielded._add_waiter(proc, done)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(f"process yielded negative delay {yielded}")
            self.schedule(
                float(yielded), lambda: self._step_process(proc, None, done)
            )
        else:
            raise SimulationError(
                f"process yielded unsupported value {yielded!r}; "
                "yield a delay (ms) or an Event"
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_until(self, t_end: float) -> None:
        """Process events until the clock would pass ``t_end`` ms."""
        if t_end < self.now:
            raise SimulationError(f"t_end {t_end} is before now {self.now}")
        self._dispatch(t_end)

    def run(self) -> None:
        """Process events until the queue drains."""
        self._dispatch(None)

    def _dispatch(self, t_end: Optional[float]) -> None:
        """The one dispatch loop; ``t_end=None`` runs until the queue drains.

        A bounded run leaves the clock at ``t_end``, an unbounded one at
        the last event's time.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        tracer = self.tracer
        metrics = self.metrics
        observed = tracer is not None or metrics is not None
        t_start = self.now
        limit = math.inf if t_end is None else t_end
        dispatched = 0
        try:
            while self._queue and self._queue[0][0] <= limit:
                when, _seq, action = heapq.heappop(self._queue)
                self.now = when
                action()
                if observed:
                    dispatched += 1
                    if (
                        tracer is not None
                        and dispatched % Simulator.TRACE_SAMPLE_EVERY == 0
                    ):
                        tracer.counter(
                            "sim.queue_depth", self.now, len(self._queue)
                        )
                    if (
                        metrics is not None
                        and dispatched % Simulator.METRICS_PUMP_EVERY == 0
                    ):
                        metrics.maybe_sample(self.now)
            if t_end is not None:
                self.now = t_end
        finally:
            self._running = False
            self.dispatched += dispatched
            if metrics is not None:
                metrics.maybe_sample(self.now)
            if tracer is not None:
                tracer.complete(
                    "sim.run", -1, "sim", t_start, self.now - t_start,
                    cat="sim", args={"dispatched": dispatched},
                )


def any_of(sim: Simulator, events: List[Event]) -> Event:
    """An event that fires as soon as the *first* event in ``events`` fires.

    Its value is the ``(event, value)`` pair of the winner, so callers can
    tell which constituent resolved the race (e.g. "did the transfer beat
    the prefetch deadline?").  Later events still trigger normally; their
    values are simply not delivered through the combined event.
    """
    if not events:
        raise SimulationError("any_of needs at least one event")
    combined = sim.event()

    def make_waiter(ev: Event) -> ProcessGen:
        def waiter() -> ProcessGen:
            value = yield ev
            if not combined.triggered:
                combined.succeed((ev, value))

        return waiter()

    for ev in events:
        sim.spawn(make_waiter(ev))
    return combined


def all_of(sim: Simulator, events: List[Event]) -> Event:
    """An event that fires when every event in ``events`` has fired.

    Its value is the list of the constituent events' values, in order.
    Expresses Eq. 2's ``max(...)`` over the pipeline's parallel tasks: the
    combined event fires at the *latest* completion time.
    """
    combined = sim.event()
    if not events:
        sim.schedule(0.0, lambda: combined.succeed([]))
        return combined
    remaining = [len(events)]

    def make_waiter(ev: Event) -> ProcessGen:
        def waiter() -> ProcessGen:
            yield ev
            remaining[0] -= 1
            if remaining[0] == 0:
                combined.succeed([e.value for e in events])

        return waiter()

    for ev in events:
        sim.spawn(make_waiter(ev))
    return combined

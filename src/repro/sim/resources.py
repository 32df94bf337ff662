"""Shared resources for the discrete-event simulator.

The key abstraction is :class:`FluidShareServer`, a processor-sharing
server: all active jobs progress simultaneously, each receiving an equal
share of the capacity.  This is the standard fluid model of a shared
wireless medium and is what produces the paper's headline scaling failure:
N players prefetching concurrently each see ~1/N of the 802.11ac
throughput, so per-frame network delay grows linearly with N (Table 1).

A plain FIFO :class:`Queue` and a counting :class:`Semaphore` support the
server-side request handling and bounded decoder slots.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict

from .engine import Event, SimulationError, Simulator


@dataclass
class _Flow:
    """An in-flight job on a :class:`FluidShareServer`."""

    flow_id: int
    remaining: float  # remaining work (e.g. megabits)
    done: Event
    started_at: float = 0.0


class FluidShareServer:
    """Processor-sharing server with fixed total capacity.

    ``capacity`` is work-units per millisecond (for the WiFi model:
    megabits per ms).  ``overhead_ms`` is a fixed per-job latency added
    before service begins (MAC/RTT-style overhead).
    """

    def __init__(
        self, sim: Simulator, capacity: float, overhead_ms: float = 0.0
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if overhead_ms < 0:
            raise ValueError("overhead_ms must be non-negative")
        self.sim = sim
        self.capacity = capacity
        self.overhead_ms = overhead_ms
        self._flows: Dict[int, _Flow] = {}
        self._cancelled: set = set()  # done-events withdrawn before service
        self._next_id = 0
        self._last_update = 0.0
        self._completion_token = 0  # invalidates stale completion callbacks
        self.total_work_done = 0.0
        self.busy_time = 0.0

    # ------------------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def current_rate(self) -> float:
        """Per-flow service rate right now (0 when idle)."""
        n = len(self._flows)
        return self.capacity / n if n else 0.0

    def submit(self, work: float) -> Event:
        """Submit a job of ``work`` units; returns its completion event."""
        if work < 0:
            raise ValueError("work must be non-negative")
        done = self.sim.event()
        if self.overhead_ms > 0:
            self.sim.schedule(self.overhead_ms, lambda: self._start_flow(work, done))
        else:
            self._start_flow(work, done)
        return done

    def cancel(self, done: Event) -> bool:
        """Withdraw the job whose completion event is ``done``.

        The job stops consuming capacity immediately and ``done`` never
        fires (callers racing it against a timeout must stop waiting on
        it).  Returns False when the job already completed — the caller's
        retry then raced a success and should treat it as such.
        """
        for flow_id, flow in self._flows.items():
            if flow.done is done:
                self._advance()
                del self._flows[flow_id]
                self._reschedule_completion()
                return True
        if done in self._cancelled or done.triggered:
            return False
        # Still in its pre-service overhead wait: mark it so _start_flow
        # drops it instead of admitting it.
        self._cancelled.add(done)
        return True

    def utilization(self, horizon_ms: float) -> float:
        """Fraction of ``horizon_ms`` during which the server was busy.

        A read-only query: a sampler calling it mid-run must not split the
        drain arithmetic, so the interval since the last state change is
        added here instead of being folded in by ``_advance``.
        """
        if horizon_ms <= 0:
            raise ValueError("horizon_ms must be positive")
        busy = self.busy_time
        if self._flows:
            busy += self.sim.now - self._last_update
        return min(1.0, busy / horizon_ms)

    # ------------------------------------------------------------------

    def _start_flow(self, work: float, done: Event) -> None:
        if done in self._cancelled:
            self._cancelled.discard(done)
            return
        self._advance()
        flow = _Flow(
            flow_id=self._next_id,
            remaining=work,
            done=done,
            started_at=self.sim.now,
        )
        self._next_id += 1
        self._flows[flow.flow_id] = flow
        self._reschedule_completion()

    def _advance(self) -> None:
        """Drain the work performed since the last state change."""
        elapsed = self.sim.now - self._last_update
        self._last_update = self.sim.now
        if elapsed <= 0 or not self._flows:
            return
        rate = self.capacity / len(self._flows)
        drained = rate * elapsed
        for flow in self._flows.values():
            actually_drained = min(drained, flow.remaining)
            flow.remaining -= actually_drained
            self.total_work_done += actually_drained
        self.busy_time += elapsed

    def _reschedule_completion(self) -> None:
        """(Re)arm the timer for the next flow completion."""
        self._completion_token += 1
        token = self._completion_token
        if not self._flows:
            return
        rate = self.capacity / len(self._flows)
        soonest = min(self._flows.values(), key=lambda f: f.remaining)
        delay = soonest.remaining / rate
        self.sim.schedule(delay, lambda: self._complete_due(token))

    def _complete_due(self, token: int) -> None:
        if token != self._completion_token:
            return  # superseded by a later arrival/departure
        self._advance()
        finished = [f for f in self._flows.values() if f.remaining <= 1e-12]
        if not finished and self._flows:
            # The timer fired un-superseded, so the soonest flow is done by
            # construction.  At large sim.now the rearm delay for a few ulps
            # of residual work can round below one ulp of the clock, freezing
            # simulated time in a rearm/fire livelock -- force completion.
            soonest = min(self._flows.values(), key=lambda f: f.remaining)
            self.total_work_done += soonest.remaining
            soonest.remaining = 0.0
            finished = [soonest]
        for flow in finished:
            del self._flows[flow.flow_id]
        self._reschedule_completion()
        for flow in finished:
            flow.done.succeed(self.sim.now - flow.started_at)


class Semaphore:
    """Counting semaphore for bounded concurrent stages (e.g. decoder slots)."""

    def __init__(self, sim: Simulator, slots: int) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.sim = sim
        self.slots = slots
        self._available = slots
        self._waiting: Deque[Event] = deque()

    def acquire(self) -> Event:
        """Take a slot; the returned event fires when granted."""
        ev = self.sim.event()
        if self._available > 0:
            self._available -= 1
            self.sim.schedule(0.0, lambda: ev.succeed())
        else:
            self._waiting.append(ev)
        return ev

    def release(self) -> None:
        """Return a slot, waking the oldest waiter if any."""
        if self._waiting:
            self._waiting.popleft().succeed()
        else:
            if self._available >= self.slots:
                raise SimulationError("release without matching acquire")
            self._available += 1


class Queue:
    """Unbounded FIFO queue connecting simulator processes."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Enqueue an item, waking the oldest blocked getter."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Dequeue; the returned event fires with the item."""
        ev = self.sim.event()
        if self._items:
            item = self._items.popleft()
            self.sim.schedule(0.0, lambda: ev.succeed(item))
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)

"""Shared resources for the discrete-event simulator.

The key abstraction is :class:`FluidShareServer`, a processor-sharing
server: all active jobs progress simultaneously, each receiving an equal
share of the capacity.  This is the standard fluid model of a shared
wireless medium and is what produces the paper's headline scaling failure:
N players prefetching concurrently each see ~1/N of the 802.11ac
throughput, so per-frame network delay grows linearly with N (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .engine import Event, Simulator


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

"""The shared render farm: batched panorama rendering on finite GPUs.

Coterie's Fig. 11 scalability argument is server-side: FI sync replaces
whole-frame streams, so one server sustains ~10x the players — *if* the
panorama renders those players still demand are scheduled well.  This
module is that scheduler.  A :class:`RenderFarm` owns ``gpu_slots``
identical slots; every active session submits render requests (content
addresses from the :class:`~repro.fleet.store.SharedPanoramaStore`) and
the farm drains them under a deadline-aware priority with a per-session
fairness counter:

* **priority** — pending requests order by ``(deadline, served count of
  the submitting session, submission sequence)``.  Earliest deadline
  first keeps warm-up renders (which gate a session going ACTIVE) ahead
  of steady-state prefetch; the fairness counter stops one large session
  from starving a small one at equal deadlines; the FIFO sequence makes
  the order total and deterministic.
* **batching** — a free slot takes up to ``batch_max`` requests in one
  dispatch and pays ``dispatch_overhead_ms`` once for the whole batch,
  the economics that make a shared farm beat per-session GPUs.  With
  ``cross_session=False`` a batch may only contain one session's
  requests (the isolated-serving comparator).
* **coalescing** — in cross-session mode, a submit whose address is
  already pending or in flight attaches to the existing request instead
  of enqueueing new work: concurrent identical demand costs one render.

Everything is driven by the discrete-event simulator, so a farm run is a
pure function of its submission sequence — two identical fleet runs
produce bit-identical farm statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..metrics.stats import percentile
from ..sim import Event, Simulator
from ..telemetry import MetricsHub


@dataclass
class RenderRequest:
    """One panorama render in flight through the farm."""

    seq: int
    session_id: int
    address: str
    submitted_ms: float
    deadline_ms: float
    #: Fires with the completion time when the render lands.
    done: Event
    completed_ms: Optional[float] = None
    #: How many submits were folded into this request (1 = no coalescing).
    attached: int = 1


@dataclass(frozen=True)
class FarmSnapshot:
    """Deterministic end-of-run farm statistics."""

    renders: int
    batches: int
    coalesced: int
    deadline_misses: int
    queue_peak: int
    mean_batch: float
    mean_wait_ms: float
    p99_wait_ms: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form for summaries and benchmark payloads."""
        return {
            "renders": self.renders,
            "batches": self.batches,
            "coalesced": self.coalesced,
            "deadline_misses": self.deadline_misses,
            "queue_peak": self.queue_peak,
            "mean_batch": round(self.mean_batch, 6),
            "mean_wait_ms": round(self.mean_wait_ms, 6),
            "p99_wait_ms": round(self.p99_wait_ms, 6),
        }


@dataclass
class _FarmCounters:
    """Mutable tallies the snapshot is cut from."""

    renders: int = 0
    batches: int = 0
    coalesced: int = 0
    deadline_misses: int = 0
    queue_peak: int = 0
    waits_ms: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)


class RenderFarm:
    """Deadline-aware batching scheduler over a fixed GPU-slot budget."""

    def __init__(
        self,
        sim: Simulator,
        gpu_slots: int = 4,
        render_ms: float = 30.0,
        dispatch_overhead_ms: float = 8.0,
        batch_max: int = 8,
        cross_session: bool = True,
        completion_hook: Optional[Callable[[RenderRequest], None]] = None,
        metrics: Optional[MetricsHub] = None,
    ) -> None:
        """``completion_hook`` runs once per finished request (e.g. the
        shared store's ``commit``); ``metrics`` is an optional
        :class:`~repro.telemetry.MetricsHub` that gains a queue-depth
        probe plus render/batch counters and a wait gauge."""
        if gpu_slots < 1:
            raise ValueError("gpu_slots must be >= 1")
        if render_ms <= 0:
            raise ValueError("render_ms must be positive")
        if dispatch_overhead_ms < 0:
            raise ValueError("dispatch_overhead_ms must be non-negative")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        self.sim = sim
        self.gpu_slots = gpu_slots
        self.render_ms = render_ms
        self.dispatch_overhead_ms = dispatch_overhead_ms
        self.batch_max = batch_max
        self.cross_session = cross_session
        self.completion_hook = completion_hook
        self._free_slots = gpu_slots
        self._pending: List[RenderRequest] = []
        self._live_by_address: Dict[str, RenderRequest] = {}
        self._served: Dict[int, int] = {}
        self._seq = 0
        self.counters = _FarmCounters()
        self._wait_gauge = None
        self._renders_counter = None
        self._coalesced_counter = None
        if metrics is not None:
            depth_gauge = metrics.gauge("farm_queue_depth")
            busy_gauge = metrics.gauge("farm_busy_slots")
            metrics.register_probe(
                lambda: depth_gauge.set(float(len(self._pending)))
            )
            metrics.register_probe(
                lambda: busy_gauge.set(float(self.gpu_slots - self._free_slots))
            )
            self._wait_gauge = metrics.gauge("farm_wait_ms")
            self._renders_counter = metrics.counter("farm_renders_total")
            self._coalesced_counter = metrics.counter("farm_coalesced_total")

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, session_id: int, address: str,
               deadline_ms: float) -> Event:
        """Queue one render; the returned event fires at completion.

        In cross-session mode a duplicate address coalesces onto the
        live request and shares its completion event.
        """
        if self.cross_session:
            live = self._live_by_address.get(address)
            if live is not None:
                live.attached += 1
                self.counters.coalesced += 1
                if self._coalesced_counter is not None:
                    self._coalesced_counter.inc()
                return live.done
        request = RenderRequest(
            seq=self._seq,
            session_id=session_id,
            address=address,
            submitted_ms=self.sim.now,
            deadline_ms=deadline_ms,
            done=self.sim.event(),
        )
        self._seq += 1
        self._pending.append(request)
        if self.cross_session:
            self._live_by_address[address] = request
        self.counters.queue_peak = max(
            self.counters.queue_peak, len(self._pending)
        )
        self._dispatch()
        return request.done

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _priority(self, request: RenderRequest) -> tuple:
        """Total order: deadline, then session fairness, then FIFO."""
        return (
            request.deadline_ms,
            self._served.get(request.session_id, 0),
            request.seq,
        )

    def _dispatch(self) -> None:
        """Fill free slots with priority-ordered batches."""
        while self._free_slots > 0 and self._pending:
            ordered = sorted(self._pending, key=self._priority)
            head = ordered[0]
            batch = [head]
            for request in ordered[1:]:
                if len(batch) >= self.batch_max:
                    break
                if self.cross_session or request.session_id == head.session_id:
                    batch.append(request)
            for request in batch:
                self._pending.remove(request)
            self._free_slots -= 1
            self.counters.batches += 1
            self.counters.batch_sizes.append(len(batch))
            busy_ms = self.dispatch_overhead_ms + self.render_ms * len(batch)
            self.sim.schedule(busy_ms, lambda b=batch: self._complete(b))

    def _complete(self, batch: List[RenderRequest]) -> None:
        """Land a batch: stats, fairness credit, hooks, waiter wake-ups."""
        now = self.sim.now
        for request in batch:
            request.completed_ms = now
            wait_ms = now - request.submitted_ms
            self.counters.waits_ms.append(wait_ms)
            self.counters.renders += 1
            if now > request.deadline_ms:
                self.counters.deadline_misses += 1
            self._served[request.session_id] = (
                self._served.get(request.session_id, 0) + 1
            )
            if self.cross_session:
                self._live_by_address.pop(request.address, None)
            if self._wait_gauge is not None:
                self._wait_gauge.set(wait_ms)
            if self._renders_counter is not None:
                self._renders_counter.inc()
            if self.completion_hook is not None:
                self.completion_hook(request)
            request.done.succeed(now)
        self._free_slots += 1
        self._dispatch()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def served(self, session_id: int) -> int:
        """Completed renders credited to ``session_id`` (fairness count)."""
        return self._served.get(session_id, 0)

    def snapshot(self) -> FarmSnapshot:
        """Freeze the counters into an immutable summary."""
        c = self.counters
        return FarmSnapshot(
            renders=c.renders,
            batches=c.batches,
            coalesced=c.coalesced,
            deadline_misses=c.deadline_misses,
            queue_peak=c.queue_peak,
            mean_batch=(
                sum(c.batch_sizes) / len(c.batch_sizes) if c.batch_sizes else 0.0
            ),
            mean_wait_ms=(
                sum(c.waits_ms) / len(c.waits_ms) if c.waits_ms else 0.0
            ),
            p99_wait_ms=(
                percentile(c.waits_ms, 99.0) if c.waits_ms else 0.0
            ),
        )

"""The shared 802.11ac wireless link.

The testbed (§3) measures ~500 Mbps TCP download from the server over
802.11ac, shared by all phones.  We model the medium as a processor-sharing
fluid link (:class:`repro.sim.FluidShareServer`): N concurrent transfers
each progress at capacity/N, plus a fixed per-transfer MAC/RTT overhead.
This is precisely the mechanism behind the paper's scaling wall — per-frame
network delay grows near-linearly with the number of players (Table 1).

The link also keeps per-tag byte accounting so the benchmarks can report
Table 9's bandwidth split (BE frames vs FI sync traffic).
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, Optional

from ..sim import Event, FluidShareServer, Simulator
from .impairment import LinkImpairment

if TYPE_CHECKING:
    from ..telemetry import MetricsHub, SpanTracer

MBIT = 1_000_000.0


class WifiLink:
    """A shared-capacity wireless medium with byte accounting."""

    # Fractional goodput lost per extra contending station: 802.11 MAC
    # arbitration (backoff collisions, ACK/IFS overhead) erodes aggregate
    # throughput as stations multiply.
    MAC_CONTENTION_LOSS = 0.095

    def __init__(
        self,
        sim: Simulator,
        capacity_mbps: float = 500.0,
        overhead_ms: float = 1.5,
        stations: int = 1,
        impairment: Optional[LinkImpairment] = None,
        tracer: Optional[SpanTracer] = None,
        metrics: Optional[MetricsHub] = None,
    ) -> None:
        if capacity_mbps <= 0:
            raise ValueError("capacity_mbps must be positive")
        if stations < 1:
            raise ValueError("stations must be >= 1")
        self.sim = sim
        # Telemetry hook (repro.telemetry.SpanTracer or None): submission
        # instants carry the impairment draw, the impaired relay stamps a
        # completed link.transfer span, aborts are marked.  Purely
        # observational — no events are scheduled for tracing.
        self.tracer = tracer
        self._trace_lane_ends: list = []  # per-lane last span end (tracing)
        # Metrics hook (repro.telemetry.MetricsHub or None): per-tag byte
        # counters mirror _tag_bytes, and a probe samples active transfers
        # plus medium utilization at each boundary.  Also observational.
        self.metrics = metrics
        self._byte_counters: Dict[str, object] = {}
        if self.metrics is not None:
            active_gauge = self.metrics.gauge("link_active_transfers")
            util_gauge = self.metrics.gauge("link_utilization")

            def _probe() -> None:
                active_gauge.set(float(self._medium.active_flows))
                if self.sim.now > 0:
                    util_gauge.set(self._medium.utilization(self.sim.now))

            self.metrics.register_probe(_probe)
        self.capacity_mbps = capacity_mbps
        self.stations = stations
        self.mac_efficiency = 1.0 / (1.0 + self.MAC_CONTENTION_LOSS * (stations - 1))
        # FluidShareServer works in megabits per millisecond.
        self._medium = FluidShareServer(
            sim,
            capacity=capacity_mbps * self.mac_efficiency / 1000.0,
            overhead_ms=overhead_ms,
        )
        # Optional seeded impairment (loss/jitter/dips); None = clean link
        # with the exact historical behaviour.
        self.impairment = impairment
        self._relayed: Dict[Event, Event] = {}  # impaired outer -> medium event
        self._tag_bytes: Dict[str, float] = defaultdict(float)
        self._first_activity_ms = None

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------

    def transfer(self, size_bytes: float, tag: str = "be") -> Event:
        """Send ``size_bytes`` over the medium; completion event's value is
        the transfer duration in ms (including queueing under contention).

        Zero-byte transfers complete immediately without paying the MAC
        overhead — nothing is put on the air.
        """
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        if not tag:
            raise ValueError("tag must be a non-empty string")
        if size_bytes == 0:
            done = self.sim.event()
            done.succeed(0.0)
            return done
        self._note_activity()
        self._tag_bytes[tag] += size_bytes
        if self.metrics is not None:
            self._meter_bytes(tag, size_bytes)
        megabits = size_bytes * 8.0 / MBIT
        tracer = self.tracer
        if self.impairment is None:
            if tracer is not None:
                tracer.instant(
                    "link.submit", -1, "link", self.sim.now, cat="net",
                    args={"bytes": size_bytes, "tag": tag,
                          "active": self._medium.active_flows},
                )
            return self._medium.submit(megabits)
        drawn = self.impairment.sample(self.sim.now, size_bytes)
        inner = self._medium.submit(megabits * drawn.work_scale)
        outer = self.sim.event()
        self._relayed[outer] = inner
        submitted_ms = self.sim.now
        if tracer is not None:
            tracer.instant(
                "link.submit", -1, "link", submitted_ms, cat="net",
                args={"bytes": size_bytes, "tag": tag,
                      "active": self._medium.active_flows,
                      "work_scale": round(drawn.work_scale, 4),
                      "lost_segments": drawn.lost_segments,
                      "bursts": drawn.bursts},
            )

        def relay():
            service_ms = yield inner
            if drawn.extra_latency_ms > 0:
                yield drawn.extra_latency_ms
            self._relayed.pop(outer, None)
            total_ms = service_ms + drawn.extra_latency_ms
            if tracer is not None:
                tracer.complete(
                    "link.transfer", -1, self._trace_lane(submitted_ms, total_ms),
                    submitted_ms, total_ms, cat="net",
                    args={"bytes": size_bytes, "tag": tag,
                          "lost_segments": drawn.lost_segments,
                          "bursts": drawn.bursts,
                          "extra_latency_ms": round(drawn.extra_latency_ms, 4)},
                )
            outer.succeed(total_ms)

        self.sim.spawn(relay())
        return outer

    def _trace_lane(self, start_ms: float, dur_ms: float) -> str:
        """A link sub-lane free over [start, start+dur] (tracing only).

        Concurrent transfers would overlap on one timeline track, which
        trace viewers render badly; greedy interval coloring spreads them
        over ``link 0``, ``link 1``, ... so each lane's spans are disjoint.
        """
        for i, end_ms in enumerate(self._trace_lane_ends):
            if end_ms <= start_ms:
                self._trace_lane_ends[i] = start_ms + dur_ms
                return f"link {i}"
        self._trace_lane_ends.append(start_ms + dur_ms)
        return f"link {len(self._trace_lane_ends) - 1}"

    def abort(self, event: Event) -> bool:
        """Abandon a pending transfer (retry/backoff path).

        The medium stops serving it and ``event`` never fires; the bytes
        already counted stay counted (they were attempted on the air).
        Returns False if the transfer had already completed.
        """
        inner = self._relayed.pop(event, event)
        cancelled = self._medium.cancel(inner)
        if cancelled and self.tracer is not None:
            self.tracer.instant(
                "link.abort", -1, "link", self.sim.now, cat="net"
            )
        return cancelled

    def record_datagram(self, size_bytes: float, tag: str = "fi") -> None:
        """Account small UDP traffic without simulating its service time.

        FI sync messages are 3-4 orders of magnitude below BE traffic
        (Table 9); their contribution to medium occupancy is negligible but
        their bandwidth is reported, so they are counted, not queued.
        """
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        if not tag:
            raise ValueError("tag must be a non-empty string")
        self._note_activity()
        self._tag_bytes[tag] += size_bytes
        if self.metrics is not None:
            self._meter_bytes(tag, size_bytes)

    def _note_activity(self) -> None:
        if self._first_activity_ms is None:
            self._first_activity_ms = self.sim.now

    def _meter_bytes(self, tag: str, size_bytes: float) -> None:
        """Mirror per-tag byte totals into the metrics hub (cached handles)."""
        counter = self._byte_counters.get(tag)
        if counter is None:
            counter = self.metrics.counter("link_bytes_total", {"tag": tag})
            self._byte_counters[tag] = counter
        counter.inc(size_bytes)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def bytes_for(self, tag: str) -> float:
        """Total bytes recorded under a traffic tag."""
        return self._tag_bytes.get(tag, 0.0)

    def total_bytes(self) -> float:
        """Total bytes across all tags."""
        return sum(self._tag_bytes.values())

    def bandwidth_mbps(self, tag: str, horizon_ms: float) -> float:
        """Average bandwidth consumed by ``tag`` traffic over a horizon."""
        if horizon_ms <= 0:
            raise ValueError(
                f"horizon_ms must be positive, got {horizon_ms}"
            )
        return self.bytes_for(tag) * 8.0 / MBIT / (horizon_ms / 1000.0)

    def utilization(self, horizon_ms: float) -> float:
        """Fraction of the horizon the medium was busy."""
        if horizon_ms <= 0:
            raise ValueError(
                f"horizon_ms must be positive, got {horizon_ms}"
            )
        return self._medium.utilization(horizon_ms)

"""Resource time series: Fig. 12's CPU/GPU/temperature/power traces.

Given a session's steady utilizations, integrate the thermal model over a
long horizon and emit the per-minute series the paper plots for 30-minute
runs, plus the battery projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .power import BATTERY_WH, PowerModel
from .thermal import ThermalModel

#: One point per simulated minute, as Fig. 12 plots.
SAMPLE_S = 60.0


@dataclass(frozen=True)
class TimelinePoint:
    """One sampled instant of the session."""

    t_s: float
    cpu: float
    gpu: float
    power_w: float
    temperature_c: float
    battery_fraction: float


@dataclass
class ResourceTimeline:
    """The full series plus its summary judgments."""

    points: List[TimelinePoint]

    @property
    def duration_s(self) -> float:
        return self.points[-1].t_s if self.points else 0.0

    @property
    def peak_temperature_c(self) -> float:
        return max(p.temperature_c for p in self.points)

    @property
    def mean_power_w(self) -> float:
        return sum(p.power_w for p in self.points) / len(self.points)


def build_timeline(
    cpu: float,
    gpu: float,
    net_mbps: float,
    duration_s: float = 1800.0,
) -> ResourceTimeline:
    """Integrate a steady workload into a resource timeline.

    The paper's Fig. 12 loads are steady (Coterie's per-client work is
    player-count independent), so utilizations are constant and only the
    thermal state and battery evolve.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if not 0.0 <= cpu <= 1.0 or not 0.0 <= gpu <= 1.0:
        raise ValueError("cpu and gpu must be in [0, 1]")
    thermal = ThermalModel()
    power = PowerModel().draw_w(cpu, gpu, net_mbps)
    points: List[TimelinePoint] = []
    consumed_wh = 0.0
    t = 0.0
    while t <= duration_s + 1e-9:
        battery_fraction = max(0.0, 1.0 - consumed_wh / BATTERY_WH)
        points.append(
            TimelinePoint(
                t_s=t,
                cpu=cpu,
                gpu=gpu,
                power_w=power,
                temperature_c=thermal.temperature_c,
                battery_fraction=battery_fraction,
            )
        )
        thermal.step(power, dt_s=SAMPLE_S)
        consumed_wh += power * SAMPLE_S / 3600.0
        t += SAMPLE_S
    return ResourceTimeline(points=points)

"""Battery power-draw model (Fig. 12's bottom row).

The paper logs current and voltage from sysfs while playing: the draw sits
"fairly steady at 4 W on average" with the display locked at full
brightness in VR mode, and the 2770 mAh battery sustains >2.5 hours.  The
model: a display+SoC base (dominated by the always-max-brightness panel)
plus terms proportional to CPU share, GPU share, and radio traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

# Pixel 2 battery: 2770 mAh at a 3.85 V nominal cell voltage.
BATTERY_WH = 2.770 * 3.85


@dataclass(frozen=True)
class PowerModel:
    """Calibrated component powers in watts."""

    base_w: float = 2.05  # display @100% brightness + SoC idle + sensors
    cpu_w: float = 1.1  # at 100% CPU
    gpu_w: float = 2.3  # at 100% GPU
    wifi_w_per_mbps: float = 0.0035  # radio power per Mbps received

    def __post_init__(self) -> None:
        if min(self.base_w, self.cpu_w, self.gpu_w, self.wifi_w_per_mbps) < 0:
            raise ValueError("power terms must be non-negative")

    def draw_w(
        self, cpu_utilization: float, gpu_utilization: float, net_mbps: float = 0.0
    ) -> float:
        """Instantaneous power draw in watts."""
        if not 0.0 <= cpu_utilization <= 1.0:
            raise ValueError("cpu_utilization must be in [0, 1]")
        if not 0.0 <= gpu_utilization <= 1.0:
            raise ValueError("gpu_utilization must be in [0, 1]")
        if net_mbps < 0:
            raise ValueError("net_mbps must be non-negative")
        return (
            self.base_w
            + self.cpu_w * cpu_utilization
            + self.gpu_w * gpu_utilization
            + self.wifi_w_per_mbps * net_mbps
        )

    def battery_life_hours(self, draw_w: float) -> float:
        """Runtime on a full battery at a constant draw."""
        if draw_w <= 0:
            raise ValueError("draw_w must be positive")
        return BATTERY_WH / draw_w

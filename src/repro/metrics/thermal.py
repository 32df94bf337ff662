"""SoC thermal model (Fig. 12's temperature row).

A first-order RC model: the SoC temperature relaxes toward
``ambient + P * R_thermal`` with time constant tau, so it "increases
gradually" over a session and plateaus — the paper's requirement is that it
"stays under the thermal limit of Pixel 2, i.e., 52 Celsius" so the system
can run without throttling.
"""

from __future__ import annotations

from dataclasses import dataclass

# Pixel 2's throttle trigger from /vendor/etc/thermal-engine.conf (§7.3).
PIXEL2_THERMAL_LIMIT_C = 52.0


@dataclass
class ThermalModel:
    """First-order thermal RC integrator."""

    ambient_c: float = 27.0
    r_thermal_c_per_w: float = 5.0  # steady-state rise per watt
    tau_s: float = 420.0  # thermal time constant
    temperature_c: float = 27.0

    def __post_init__(self) -> None:
        if self.r_thermal_c_per_w <= 0 or self.tau_s <= 0:
            raise ValueError("thermal parameters must be positive")

    def steady_state_c(self, power_w: float) -> float:
        """Equilibrium temperature under a constant draw."""
        if power_w < 0:
            raise ValueError("power_w must be non-negative")
        return self.ambient_c + power_w * self.r_thermal_c_per_w

    def step(self, power_w: float, dt_s: float) -> float:
        """Advance the SoC temperature by ``dt_s`` under ``power_w`` draw."""
        if dt_s <= 0:
            raise ValueError("dt_s must be positive")
        target = self.steady_state_c(power_w)
        import math

        alpha = 1.0 - math.exp(-dt_s / self.tau_s)
        self.temperature_c += (target - self.temperature_c) * alpha
        return self.temperature_c

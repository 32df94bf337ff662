"""Constraints 1 and 2: the budgets that bound the offline cutoff choice.

Constraint 1 — the mobile device must render FI plus near BE inside the
60 FPS frame budget (§4.3):

    RT_FI + RT_nearBE < 16.7 ms

RT_FI is measured per app/device from recorded game play and bounded
conservatively (the paper measures "well below 4 ms" on Pixel 2 and uses
4 ms, leaving 12.7 ms for near BE).

Constraint 2 — the aggregate traffic of all co-present players must fit
the shared wireless medium (§4.2-4.3, Table 9): the per-player far-BE
fetch streams plus the FI sync fanout may not exceed the link's usable
capacity.  The offline dist-thresh check evaluates it for a fixed party;
:func:`satisfies_bandwidth_constraint` is the online form the session
supervisor re-validates on every membership change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..geometry import Vec2
from ..render.timing import RenderCostModel
from ..world.scene import Scene

FRAME_BUDGET_MS = 16.7
# The paper's conservative FI bound on Pixel 2.
PAPER_FI_BOUND_MS = 4.0
# Margin on a measured FI render time before it becomes the bound.
FI_SAFETY_FACTOR = 1.3
# The near-BE budget keeps this share of 16.7 - RT_FI and leaves the rest
# unspent: the paper's strict inequality plus on-device measurement
# variance effectively leaves pipeline slack (their Coterie GPU sits near
# 55-65 %, not pinned at the budget), which we make explicit.
NEAR_BE_HEADROOM = 0.85
# The share of a wireless medium's nominal capacity Constraint 2 admits,
# the network analogue of NEAR_BE_HEADROOM: 802.11ac never sustains its
# nominal rate under contention, and admission that fills the medium to
# 100 % would push every admitted player past the frame budget the
# moment jitter strikes.
UTILIZATION_BOUND = 0.8


@dataclass(frozen=True)
class RenderBudget:
    """The per-frame budget split between FI and near BE."""

    fi_ms: float = PAPER_FI_BOUND_MS

    def __post_init__(self) -> None:
        if not 0 <= self.fi_ms < FRAME_BUDGET_MS:
            raise ValueError(f"fi_ms {self.fi_ms} must be in [0, {FRAME_BUDGET_MS})")

    @property
    def near_be_budget_ms(self) -> float:
        """Time available for near BE (Eq. 1: 16.7 - RT_FI, with headroom)."""
        return (FRAME_BUDGET_MS - self.fi_ms) * NEAR_BE_HEADROOM


def measure_fi_budget(
    model: RenderCostModel,
    fi_triangles: float,
) -> RenderBudget:
    """Derive the budget from an FI render-time measurement.

    Mirrors the paper's installation-time procedure: replay recorded FI and
    take a conservative upper bound — the paper measures "well below 4 ms"
    on Pixel 2 yet still budgets the full 4 ms, so the bound never drops
    below :data:`PAPER_FI_BOUND_MS` even when the measurement is lower.
    """
    measured = model.fi_ms(fi_triangles)
    fi_bound = max(measured * FI_SAFETY_FACTOR, PAPER_FI_BOUND_MS)
    if fi_bound >= FRAME_BUDGET_MS:
        raise ValueError(
            f"FI render time {measured:.1f} ms leaves no near-BE budget"
        )
    return RenderBudget(fi_ms=fi_bound)


def satisfies_constraint(
    model: RenderCostModel,
    scene: Scene,
    viewpoint: Vec2,
    cutoff_radius: float,
    budget: RenderBudget,
) -> bool:
    """Whether rendering near BE at ``cutoff_radius`` fits the budget."""
    if cutoff_radius < 0:
        raise ValueError("cutoff_radius must be non-negative")
    return model.near_be_ms(scene, viewpoint, cutoff_radius) < budget.near_be_budget_ms


@dataclass(frozen=True)
class BandwidthBudget:
    """Constraint 2's capacity bound for one shared wireless medium."""

    capacity_mbps: float

    def __post_init__(self) -> None:
        if self.capacity_mbps <= 0:
            raise ValueError("capacity_mbps must be positive")

    @property
    def usable_mbps(self) -> float:
        """Capacity actually available to BE + FI traffic."""
        return self.capacity_mbps * UTILIZATION_BOUND


def satisfies_bandwidth_constraint(
    per_player_be_kbps: Iterable[float],
    fi_kbps: float,
    budget: BandwidthBudget,
) -> bool:
    """Constraint 2: the roster's aggregate traffic fits the medium.

    ``per_player_be_kbps`` holds one background-environment fetch-rate
    estimate per co-present player (dist-thresh-derived for Coterie,
    every-interval whole-BE for Furion-style systems); ``fi_kbps`` is
    the closed-form FI sync bandwidth for the same roster size.
    """
    if fi_kbps < 0:
        raise ValueError("fi_kbps must be non-negative")
    total_kbps = fi_kbps
    for be_kbps in per_player_be_kbps:
        if be_kbps < 0:
            raise ValueError("per-player bandwidth must be non-negative")
        total_kbps += be_kbps
    return total_kbps / 1000.0 <= budget.usable_mbps

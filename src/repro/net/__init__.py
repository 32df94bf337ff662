"""Network substrate: shared 802.11ac link, impairment, PUN-like FI sync."""

from .estimator import RateEstimator
from .impairment import (
    TRACE_PROFILES,
    DipEpisode,
    ImpairmentConfig,
    ImpairmentStats,
    LinkImpairment,
    RateTrace,
    TransferImpairment,
)
from .link import MBIT, WifiLink
from .pun import PunChannel

__all__ = [
    "DipEpisode",
    "ImpairmentConfig",
    "ImpairmentStats",
    "LinkImpairment",
    "MBIT",
    "PunChannel",
    "RateEstimator",
    "RateTrace",
    "TRACE_PROFILES",
    "TransferImpairment",
    "WifiLink",
]

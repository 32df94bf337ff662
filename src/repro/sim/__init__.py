"""Discrete-event simulation substrate (engine + shared resources)."""

from .engine import Event, SimulationError, Simulator, all_of, any_of
from .resources import FluidShareServer

__all__ = [
    "Event",
    "FluidShareServer",
    "SimulationError",
    "Simulator",
    "all_of",
    "any_of",
]

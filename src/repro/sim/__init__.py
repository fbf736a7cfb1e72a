"""Discrete-event simulation kernel (substrate).

Provides the deterministic event loop, timers/actors and seeded
randomness streams that every other layer builds on.
"""

from .kernel import EventHandle, SimulationError, Simulator
from .process import Actor, ServiceQueue, Timer
from .rng import RandomStreams

__all__ = [
    "Actor",
    "EventHandle",
    "RandomStreams",
    "SimulationError",
    "ServiceQueue",
    "Simulator",
    "Timer",
]

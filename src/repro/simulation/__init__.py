"""Discrete-event simulation substrate.

This package is the "testbed" substitute for the paper's Xerox Research
Internet: a deterministic discrete-event engine (:class:`SimulationEngine`),
simulated actors (:class:`SimProcess`), reproducible named random streams
(:class:`RngRegistry`), and trace collection (:class:`TraceRecorder`).
"""

from .engine import PeriodicTask, SchedulingError, SimulationEngine
from .events import Event
from .process import SimProcess
from .rng import RngRegistry
from .scheduler import Scheduler
from .trace import TraceRecord, TraceRecorder

__all__ = [
    "Event",
    "PeriodicTask",
    "RngRegistry",
    "Scheduler",
    "SchedulingError",
    "SimProcess",
    "SimulationEngine",
    "TraceRecord",
    "TraceRecorder",
]

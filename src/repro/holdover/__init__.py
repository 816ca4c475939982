"""Holdover mode and clock-safety rails.

What a time server *is* when its sources vanish: an explicit
SYNCED → HOLDOVER → DEGRADED → REINTEGRATING → SYNCED state machine
(:mod:`repro.holdover.controller`), a server stage integrating it with the
discipline servo, the recovery subsystem and a slewing clock
(:mod:`repro.holdover.server`), and a fine-grained monotonicity oracle
(:mod:`repro.holdover.probe`).  See ``docs/holdover.md``.
"""

from .controller import HoldoverConfig, HoldoverController, HoldoverState
from .probe import MonotonicityProbe, MonotonicityViolation
from .server import HoldoverStage, HoldoverStats

__all__ = [
    "HoldoverConfig",
    "HoldoverController",
    "HoldoverStage",
    "HoldoverState",
    "HoldoverStats",
    "MonotonicityProbe",
    "MonotonicityViolation",
]

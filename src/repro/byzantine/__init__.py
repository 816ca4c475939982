"""Server-side Byzantine tolerance: FT-IM rounds, reputation, budgets.

The chaos suite's ``ByzantineReplies`` adversary (PR 1) showed plain
algorithm IM failing open the moment a neighbour lies; the crash-recovery
subsystem (PR 2) showed how durable state and a census repair crashes.
This package composes the two with the thesis's fault-tolerant
intersection:

* :mod:`repro.byzantine.reputation` — per-neighbour truechimer /
  falseticker reputation (EWMA with hysteresis) fed by every round's
  :class:`~repro.core.ft_im.FTRoundOutcome` classification and by reply
  validation failures;
* :mod:`repro.byzantine.budget` — the adaptive per-round fault budget
  ``f``: raised while ``2f < n`` when falsetickers are detected, decayed
  when rounds run clean;
* :mod:`repro.byzantine.server` — :class:`ByzantineStage`, which over a
  :class:`~repro.recovery.server.StabilizingStage` feeds on
  :class:`~repro.core.ft_im.FTIMPolicy` rounds, demotes persistent
  falsetickers out of the poll set via the peer-health book, excludes them from
  recovery arbitration, and carries reputation through the PR-2
  checkpoint so a warm restart does not re-trust a known liar.
"""

from .budget import FaultBudgetConfig, FaultBudgetController
from .reputation import (
    NeighbourReputation,
    ReputationConfig,
    ReputationTracker,
)
from .server import ByzantineConfig, ByzantineStage, ByzantineStats

__all__ = [
    "ByzantineConfig",
    "ByzantineStage",
    "ByzantineStats",
    "FaultBudgetConfig",
    "FaultBudgetController",
    "NeighbourReputation",
    "ReputationConfig",
    "ReputationTracker",
]

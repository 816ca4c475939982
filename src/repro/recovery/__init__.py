"""Crash-recovery and self-stabilizing consistency-group repair.

Three layers on top of the paper's Section 3 rule:

* :mod:`~repro.recovery.store` — durable checkpoints with corruption and
  torn-write detection, so a crashed server can rebuild a *correct*
  interval instead of cold-starting;
* :mod:`~repro.recovery.census` — an online, gossip-fed consistency
  census that spots the Figure 4 partition while the run is live;
* :mod:`~repro.recovery.stabilizer` — consonance-vetted, census-backed,
  epoch-numbered arbiter selection with merge hysteresis, replacing
  "any third server" so partitioned groups re-merge instead of
  re-poisoning each other.

:class:`~repro.recovery.server.StabilizingStage` wires all three
into the polling server; the builder attaches it per-spec with
``ServerSpec(self_stabilizing=True)``.
"""

from __future__ import annotations

from .census import CensusEntry, ConsistencyCensus
from .server import RestartReport, StabilizingStage
from .stabilizer import (
    SelfStabilizingRecovery,
    StabilizerConfig,
    StabilizerStats,
)
from .store import Checkpoint, StableStore, StoreStats

__all__ = [
    "CensusEntry",
    "Checkpoint",
    "ConsistencyCensus",
    "RestartReport",
    "SelfStabilizingRecovery",
    "StabilizerConfig",
    "StabilizerStats",
    "StabilizingStage",
    "StableStore",
    "StoreStats",
]

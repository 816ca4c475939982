"""Inconsistency recovery (Section 3).

When a server finds itself inconsistent with a neighbour, at least one of
the two is incorrect — but the server "cannot easily tell which", and
majority voting is unsound because consistency is not transitive.  The
paper's pragmatic rule: assume incorrect servers are rare, so on detecting
an inconsistency, reset *unconditionally* to the value of any third server
(ideally one from elsewhere in the internetwork — the anecdote's server
"obtained the time from a server on some other network").

This module provides the strategy objects a
:class:`~repro.service.server.TimeServer` consults:

* :class:`NullRecovery` — ignore inconsistencies (the raw MM/IM behaviour,
  which lets an incorrect clock wander off; used as the baseline).
* :class:`ThirdServerRecovery` — the paper's rule.  Picks an arbiter that is
  neither the server itself nor the conflicting neighbour, preferring a
  configured set of *remote* servers (other-network arbiters) when
  available.

The known failure mode — with more than one incorrect neighbour the service
partitions into consistency groups (Figure 4) — is reproduced by the
``experiments.partition`` scenario.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


@dataclass
class RecoveryStats:
    """Counters a recovery strategy maintains for analysis.

    Attributes:
        inconsistencies: Inconsistency events observed.
        recoveries_started: Third-party polls initiated.
        recoveries_completed: Unconditional resets applied.
        recoveries_timed_out: Polls abandoned because the reply never came
            (lost request or reply, a poisoned reply, or the server left
            mid-recovery); balances ``recoveries_started`` so
            ``started == completed + timed_out + in_flight``.
        recoveries_in_flight: Polls currently awaiting a reply —
            incremented by :meth:`RecoveryStrategy.note_started` and
            decremented by exactly one of ``note_completed`` /
            ``note_timed_out``; going negative means an outcome was
            recorded for a recovery that never started.
        no_arbiter: Events where no eligible third server existed.
    """

    inconsistencies: int = 0
    recoveries_started: int = 0
    recoveries_completed: int = 0
    recoveries_timed_out: int = 0
    recoveries_in_flight: int = 0
    no_arbiter: int = 0

    @property
    def balanced(self) -> bool:
        """The accounting invariant every strategy must maintain."""
        return (
            self.recoveries_in_flight >= 0
            and self.recoveries_started
            == self.recoveries_completed
            + self.recoveries_timed_out
            + self.recoveries_in_flight
        )


class RecoveryStrategy(abc.ABC):
    """Decides how a server reacts to finding itself inconsistent."""

    def __init__(self) -> None:
        self.stats = RecoveryStats()

    @abc.abstractmethod
    def choose_arbiter(
        self,
        server_name: str,
        neighbours: Sequence[str],
        conflicting: Iterable[str],
    ) -> Optional[str]:
        """Pick the third server to reset from, or None to skip recovery.

        Args:
            server_name: The recovering server (never a valid arbiter).
            neighbours: Servers reachable from the recovering server.
            conflicting: *Every* server the recovering server has found
                itself inconsistent with in the current or previous poll
                round — not just the reply that triggered this episode.
                (Excluding only the trigger left the second liar of a
                Figure 4 pair eligible as arbiter, which is exactly how
                the partition forms.)  All names here are banned.
        """

    def note_inconsistency(self) -> None:
        """Record that an inconsistency was observed."""
        self.stats.inconsistencies += 1

    def note_started(self) -> None:
        """Record that a recovery poll was sent."""
        self.stats.recoveries_started += 1
        self.stats.recoveries_in_flight += 1

    def note_completed(self) -> None:
        """Record that an unconditional reset was applied."""
        self.stats.recoveries_completed += 1
        self.stats.recoveries_in_flight -= 1

    def note_timed_out(self) -> None:
        """Record that a recovery poll was abandoned without a reply."""
        self.stats.recoveries_timed_out += 1
        self.stats.recoveries_in_flight -= 1


class NullRecovery(RecoveryStrategy):
    """Never recover: inconsistent replies are merely ignored."""

    def choose_arbiter(
        self,
        server_name: str,
        neighbours: Sequence[str],
        conflicting: Iterable[str],
    ) -> Optional[str]:
        return None


@dataclass(frozen=True)
class _ArbiterPools:
    remote: tuple[str, ...]
    local: tuple[str, ...]


class ThirdServerRecovery(RecoveryStrategy):
    """The paper's rule: on inconsistency, reset to any third server.

    Args:
        rng: Random stream for arbiter choice among equals.
        remote_servers: Optional names of servers "on some other network"
            to prefer as arbiters — modelling the anecdote where the
            confused server fetched the time from another network.  They
            need not appear in the neighbour list passed at decision time;
            they are assumed reachable.

    The assumption being encoded: "the probability of a third time server
    also being incorrect is very small".  It breaks — by design — when two
    or more incorrect servers are adjacent (Section 5 / Figure 4).
    """

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        remote_servers: Sequence[str] = (),
    ) -> None:
        super().__init__()
        self._rng = rng
        self._remote = tuple(remote_servers)

    def _pools(
        self,
        server_name: str,
        neighbours: Sequence[str],
        conflicting: Iterable[str],
    ) -> _ArbiterPools:
        banned = set(conflicting) | {server_name}
        remote = tuple(name for name in self._remote if name not in banned)
        local = tuple(
            name
            for name in neighbours
            if name not in banned and name not in remote
        )
        return _ArbiterPools(remote=remote, local=local)

    def choose_arbiter(
        self,
        server_name: str,
        neighbours: Sequence[str],
        conflicting: Iterable[str],
    ) -> Optional[str]:
        pools = self._pools(server_name, neighbours, conflicting)
        pool = pools.remote or pools.local
        if not pool:
            self.stats.no_arbiter += 1
            return None
        if self._rng is None:
            return pool[0]
        return pool[int(self._rng.integers(len(pool)))]

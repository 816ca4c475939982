"""Self-stabilizing group-merge recovery (the repair for Figure 4).

The paper's Section 3 rule — reset unconditionally to *any* third server —
rests on "the probability of a third time server also being incorrect is
very small".  With two adjacent incorrect servers the rule adopts a liar,
the liars legitimise each other, and the service splits into consistency
groups that never re-merge: the ``partition`` experiment's endgame.

:class:`SelfStabilizingRecovery` keeps the reset rule but makes the
*choice* of third server earn its trust, using every diagnostic the rest
of the codebase already computes:

1. **Consonance veto** (Section 5): a neighbour whose measured separation
   rate provably exceeds ``δ_i + δ_j`` is never an arbiter.  (The bound
   server already folds its dissonant neighbours into the exclusion set;
   the veto here also covers configured remote arbiters.)
2. **Census majority**: a candidate must be consistent with a majority of
   the fresh census edges touching it — edges with the recovering server
   excluded, since a server stranded in the wrong group would otherwise
   vote down exactly the arbiters that could save it.  When the census
   has no fresh data on any candidate the strategy degrades gracefully to
   the (fixed) exclusion-based third-server choice.
3. **Epoch preference**: every merge bumps an epoch number that gossips
   on replies; among equally-supported candidates the one in the highest
   epoch — the most-recently-consolidated group — wins, so stragglers
   join the merged group instead of each other.
4. **Hysteresis**: after applying a merge the server holds off further
   recoveries for ``merge_hold`` local seconds, letting the new state
   propagate instead of ping-ponging between groups whose census views
   disagree for a round or two.

The strategy must be :meth:`bound <SelfStabilizingRecovery.bind>` to its
server (:class:`~repro.recovery.server.StabilizingStage` does it); unbound it behaves
exactly like the fixed :class:`~repro.core.recovery.ThirdServerRecovery`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..core.recovery import RecoveryStrategy


@dataclass(frozen=True)
class StabilizerConfig:
    """Tuning knobs for the self-stabilizing layer.

    Attributes:
        merge_hold: Hysteresis — local-clock seconds after an applied
            merge during which no further recovery is attempted.
        census_horizon: Freshness horizon of the consistency census, in
            local-clock seconds.
        min_support: A candidate arbiter's census support (fraction of
            fresh edges that are consistent) must *exceed* this.  0.5 is
            "consistent with a majority of the census".
        checkpoint_period: Local seconds between stable-store checkpoints
            (used by the server, carried here so one object configures
            the whole subsystem).
        checkpoint_stale_after: Local seconds of downtime beyond which a
            checkpoint is considered stale and restart falls back to the
            cold-start bootstrap (the inflated interval would be useless
            anyway: wider than any operator-set error).
        phase_limit: Herman-style phase clock bounding the hysteresis.
            Under perpetual churn merges recur faster than ``merge_hold``
            expires, so an unbounded hold can suppress a genuinely needed
            repair indefinitely; after this many *consecutive* held
            decisions the hold yields and the repair proceeds anyway,
            guaranteeing transient faults are repaired within a bounded
            number of inconsistent rounds regardless of churn.  0
            disables the phase clock (the pre-dynamic behaviour).
    """

    merge_hold: float = 240.0
    census_horizon: float = 600.0
    min_support: float = 0.5
    checkpoint_period: float = 30.0
    checkpoint_stale_after: float = 3600.0
    phase_limit: int = 4


@dataclass
class StabilizerStats:
    """What the vetting pipeline did (analysis and tests)."""

    held: int = 0  # decisions suppressed by merge hysteresis
    phase_repairs: int = 0  # holds overridden by the phase clock
    vetoed_dissonant: int = 0  # candidates removed by the consonance veto
    vetoed_falseticker: int = 0  # candidates removed by the reputation veto
    vetoed_support: int = 0  # candidates removed by census-majority vetting
    census_choices: int = 0  # arbiters chosen with census backing
    fallback_choices: int = 0  # arbiters chosen with no census data


class SelfStabilizingRecovery(RecoveryStrategy):
    """Consonance-vetted, census-supported, epoch-tie-broken recovery.

    Args:
        rng: Random stream for choice among fully-tied candidates.
        remote_servers: Optional other-network arbiters, as in
            :class:`~repro.core.recovery.ThirdServerRecovery`; they face
            the same vetting as neighbours.
        config: The stabilizer tuning knobs.
    """

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        remote_servers: Sequence[str] = (),
        config: Optional[StabilizerConfig] = None,
    ) -> None:
        super().__init__()
        self._rng = rng
        self._remote = tuple(remote_servers)
        self.config = config if config is not None else StabilizerConfig()
        self.stabilizer_stats = StabilizerStats()
        self._server = None  # set by bind()
        self._held_streak = 0  # consecutive holds, for the phase clock

    def bind(self, server) -> None:
        """Attach the strategy to its server (census, rates, epochs)."""
        self._server = server

    # ------------------------------------------------------------- decision

    def choose_arbiter(
        self,
        server_name: str,
        neighbours: Sequence[str],
        conflicting: Iterable[str],
    ) -> Optional[str]:
        banned = set(conflicting) | {server_name}
        candidates = [name for name in self._remote if name not in banned]
        candidates += [
            name
            for name in neighbours
            if name not in banned and name not in candidates
        ]
        if not candidates:
            self.stats.no_arbiter += 1
            return None
        server = self._server
        if server is None:
            return self._pick(candidates)

        # Hysteresis: a freshly merged server lets the dust settle — but
        # bounded by a Herman-style phase clock.  Under perpetual churn
        # the hold window keeps restarting (merges never stop), so
        # without the pulse a transient fault arriving just after a merge
        # could go unrepaired for the whole window; after ``phase_limit``
        # consecutive holds the repair proceeds anyway.
        now_local = server.clock_value()
        if (
            server.last_merge_local is not None
            and now_local - server.last_merge_local < self.config.merge_hold
        ):
            self._held_streak += 1
            if (
                self.config.phase_limit <= 0
                or self._held_streak < self.config.phase_limit
            ):
                self.stabilizer_stats.held += 1
                return None
            self.stabilizer_stats.phase_repairs += 1
        self._held_streak = 0

        # Consonance veto (covers remote arbiters the server's own
        # exclusion widening cannot reach).
        dissonant = set(server.dissonant_neighbours())
        vetted = [name for name in candidates if name not in dissonant]
        self.stabilizer_stats.vetoed_dissonant += len(candidates) - len(vetted)
        if not vetted:
            self.stats.no_arbiter += 1
            return None

        # Falseticker veto: a neighbour the reputation tracker currently
        # classifies as lying is never an arbiter — the paper's
        # unconditional reset would adopt the lie wholesale, and census
        # majorities lag (a liar's gossiped verdicts can keep it looking
        # supported for a horizon).  Stronger than census vetting, so it
        # runs first and unconditionally.
        flagged = set(getattr(server, "falseticker_neighbours", tuple)())
        if flagged:
            survivors = [name for name in vetted if name not in flagged]
            self.stabilizer_stats.vetoed_falseticker += len(vetted) - len(
                survivors
            )
            vetted = survivors
            if not vetted:
                self.stats.no_arbiter += 1
                return None

        # Census-majority vetting.  Edges with the recovering server are
        # excluded from the support count: we *know* we conflict with
        # someone, and a server in the minority group would otherwise
        # veto every arbiter from the majority.
        scored: list[tuple[float, int, str]] = []
        censusless: list[str] = []
        for name in vetted:
            support = server.census.support(
                name, now_local, exclude=(server_name,)
            )
            if support is None:
                censusless.append(name)
            elif support > self.config.min_support:
                scored.append((support, server.epoch_of(name), name))
            else:
                self.stabilizer_stats.vetoed_support += 1
        if scored:
            # Highest support, then highest epoch; rng among exact ties.
            scored.sort(key=lambda item: (-item[0], -item[1], item[2]))
            best_support, best_epoch, _ = scored[0]
            tied = [
                name
                for support, epoch, name in scored
                if support == best_support and epoch == best_epoch
            ]
            self.stabilizer_stats.census_choices += 1
            return self._pick(tied)
        if censusless:
            # No census data at all on the survivors: degrade to the
            # exclusion-based third-server rule over them.
            self.stabilizer_stats.fallback_choices += 1
            return self._pick(censusless)
        self.stats.no_arbiter += 1
        return None

    def _pick(self, pool: Sequence[str]) -> str:
        if self._rng is None or len(pool) == 1:
            return pool[0]
        return pool[int(self._rng.integers(len(pool)))]

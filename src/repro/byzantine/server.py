"""The Byzantine-tolerant time server.

:class:`ByzantineStage` sits over a
:class:`~repro.recovery.server.StabilizingStage` (checkpointing,
census, merge epochs) on a server whose synchronization policy is
expected to be an :class:`~repro.core.ft_im.FTIMPolicy`.  On top of the
recovery stack it adds the full liar-handling loop:

* **Round classification → reputation** — every FT-IM round's
  truechimer/falseticker split feeds the
  :class:`~repro.byzantine.reputation.ReputationTracker`; persistent
  falsetickers are *demoted from the poll set* through the server's
  :class:`~repro.service.hardening.PeerHealth` book — the hardening
  subsystem's score and quarantine machinery, with its starvation guard
  and cooldown-probing, shared with the hardening stage when both run —
  and their census verdicts are overwritten with the classification so
  liars lose recovery-arbiter support service-wide.
* **Reply validation → reputation** — the peer-health book judges every
  reply once (the hardened sanity checks plus the rule MM-1 growth
  clamp); each rejection counts against the sender's reputation.
* **Adaptive fault budget** — when the policy's budget is a
  :class:`~repro.byzantine.budget.FaultBudgetController`, round outcomes
  drive it (raise on detected liars, decay on clean rounds) and the poll
  set pins its floor at the number of classified liars being probed.
* **Recovery exclusion** — :meth:`falseticker_neighbours` feeds the
  stabilizer's arbiter veto, and classified liars widen the conflicting
  set exactly like dissonant neighbours do.
* **Durable reputation** — the reputation blob and budget ride in every
  checkpoint; a warm restart restores them, so a revived server does not
  re-trust a known liar (nor pick one as its rejoin arbiter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.ft_im import FTIMPolicy, FTRoundOutcome
from ..recovery.server import StabilizingStage
from ..service.hardening import PeerHealth, QuarantinePolicy
from ..service.server import Stage, TimeServer
from .budget import FaultBudgetController
from .reputation import ReputationConfig, ReputationTracker


@dataclass(frozen=True)
class ByzantineConfig:
    """Knobs for the Byzantine-tolerance layer.

    Attributes:
        reputation: Reputation tracker tuning.
        quarantine: Health/demotion policy — reuses the hardening
            subsystem's machinery; the defaults quarantine a persistent
            liar after roughly three bad rounds and probe it back in
            after ``cooldown`` seconds.

    Reply validation has no knob here: the server's
    :class:`~repro.service.hardening.PeerHealth` book judges every reply
    with :class:`~repro.service.hardening.HardeningConfig`'s bounds.
    """

    reputation: ReputationConfig = field(default_factory=ReputationConfig)
    quarantine: QuarantinePolicy = field(default_factory=QuarantinePolicy)


@dataclass
class ByzantineStats:
    """Counters the Byzantine layer adds (analysis and tests)."""

    tolerant_rounds: int = 0
    plain_rounds: int = 0
    falseticker_observations: int = 0
    validation_rejections: int = 0
    demotions: int = 0
    starvation_overrides: int = 0


@dataclass(frozen=True)
class DemotionEvent:
    """One neighbour's demotion from the poll set.

    Attributes:
        at: Real time of the demotion.
        neighbour: Who was demoted.
    """

    at: float
    neighbour: str


class ByzantineStage(Stage):
    """Tolerates, detects and benches liars.

    Needs a :class:`~repro.recovery.server.StabilizingStage` (for the
    census) and a :class:`~repro.service.hardening.PeerHealth` book
    earlier in the stage list.

    Args:
        config: The tolerance-layer knobs; defaults to
            :class:`ByzantineConfig`'s defaults.

    The synchronization policy should be a per-server
    :class:`~repro.core.ft_im.FTIMPolicy`; when its ``fault_budget`` is a
    :class:`~repro.byzantine.budget.FaultBudgetController` the stage
    adopts and drives it.  Any other batch policy still works — the
    stage then only gets validation-based (not classification-based)
    reputation evidence.
    """

    exports = (
        "byzantine_stats",
        "reputation",
        "budget_controller",
        "demotion_log",
        "falseticker_neighbours",
    )

    def __init__(self, config: Optional[ByzantineConfig] = None) -> None:
        self.byzantine = config if config is not None else ByzantineConfig()
        self.reputation = ReputationTracker(self.byzantine.reputation)
        self.byzantine_stats = ByzantineStats()
        self.demotion_log: List[DemotionEvent] = []

    def attach(self, server: TimeServer) -> None:
        super().attach(server)
        self.census = self.need(StabilizingStage).census
        self.peers = self.need(PeerHealth)
        self.peers.reporters.append(self)
        controller = None
        if isinstance(server.policy, FTIMPolicy) and isinstance(
            server.policy.fault_budget, FaultBudgetController
        ):
            controller = server.policy.fault_budget
        self.budget_controller = controller

    # --------------------------------------------------------------- health

    def peer_benched(self, name: str) -> None:
        server = self.server
        self.byzantine_stats.demotions += 1
        self.demotion_log.append(DemotionEvent(at=server.now, neighbour=name))
        server._trace("demote", server=name)
        server.telemetry.demotion(server.now, name)

    def peers_readmitted(self, count: int) -> None:
        self.byzantine_stats.starvation_overrides += count

    def reply_rejected(self, name: str) -> None:
        self.byzantine_stats.validation_rejections += 1

    def falseticker_neighbours(self) -> tuple[str, ...]:
        """Neighbours currently classified falsetickers — the
        stabilizer's arbiter vetting consults this on every recovery."""
        return self.reputation.falsetickers()

    # ------------------------------------------------------- poll targeting

    def _poll_targets(self, active: list[str]) -> list[str]:
        if self.budget_controller is not None:
            # Classified liars still being polled (probation probes or
            # pre-demotion rounds) are *known* faults: budget for them
            # before the round even runs.
            known = sum(
                1 for name in active if self.reputation.is_falseticker(name)
            )
            self.budget_controller.set_floor(known)
        return active

    # ----------------------------------------------------------- rejection

    def _peer_rejected(self, peer: str) -> None:
        self.reputation.observe_validation_failure(peer)

    # ------------------------------------------------------- round feedback

    def _on_round_outcome(self, outcome) -> None:
        if not isinstance(outcome, FTRoundOutcome):
            return
        if outcome.mode == "tolerant":
            self.byzantine_stats.tolerant_rounds += 1
        else:
            self.byzantine_stats.plain_rounds += 1
        now_local = self.server.clock_value()
        for name in outcome.truechimers:
            self.reputation.observe_truechimer(name)
            self.peers.good(name)
        for name in outcome.falsetickers:
            self.byzantine_stats.falseticker_observations += 1
            if self.reputation.observe_falseticker(name):
                if self.reputation.is_falseticker(name):
                    self.server._trace("falseticker", server=name)
            self.peers.inconsistent(name)
            # Classification outranks the per-reply transit check the
            # census already recorded: a tolerated liar's reply can still
            # overlap the local interval, but the round-level majority
            # judged it wrong — make the census agree so the liar loses
            # recovery-arbiter support everywhere the verdict gossips.
            self.census.observe(name, False, now_local)
        if self.budget_controller is not None:
            # A consistent plain round with a zero cap (too few sources
            # for any tolerance) is genuinely clean, not a failure.
            tolerated = outcome.consistent and (
                outcome.mode == "tolerant" or outcome.fault_budget == 0
            )
            self.budget_controller.note_round(
                falsetickers=len(outcome.falsetickers),
                tolerated=tolerated,
                n_sources=outcome.n_sources,
            )

    # --------------------------------------------------- recovery exclusion

    def before_inconsistency(self, conflicting: tuple[str, ...]) -> tuple[str, ...]:
        flagged = tuple(
            name
            for name in self.reputation.falsetickers()
            if name != self.server.name
        )
        benched = tuple(self.peers.quarantined_peers())
        return tuple(dict.fromkeys(tuple(conflicting) + flagged + benched))

    # ------------------------------------------------- durable reputation

    def checkpoint_fields(self) -> dict:
        return {
            "reputation": self.reputation.encode(),
            "fault_budget": (
                self.budget_controller.value
                if self.budget_controller is not None
                else 0
            ),
        }

    def restore_checkpoint(self, checkpoint) -> None:
        if checkpoint is None:
            return
        try:
            self.reputation.restore(checkpoint.reputation)
        except ValueError:
            # A checkpoint that decoded but carries a garbled blob: start
            # reputation fresh rather than fail the whole warm restart.
            self.reputation.restore("")
        if self.budget_controller is not None and checkpoint.fault_budget > 0:
            self.budget_controller.value = max(
                self.budget_controller.config.minimum, checkpoint.fault_budget
            )

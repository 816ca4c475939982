"""A time server with durable state, a live census, and merge epochs.

:class:`StabilizingStage` is the integration point of the recovery
subsystem.  Over a :class:`~repro.service.rate_tracking.
RateTrackingStage` (whose Section 5 consonance machinery the stabilizer's
veto needs) it adds:

* **Checkpointing** — every ``checkpoint_period`` local seconds the MM-1
  state ``<C, E, rate estimate, epoch>`` goes to the shared
  :class:`~repro.recovery.store.StableStore`; a merge also checkpoints
  immediately, so the newly-adopted group survives a crash.
* **Crash/restart** — :meth:`crash` is an abrupt kill (no farewell
  protocol); :meth:`restart` rebuilds the interval from the checkpoint by
  inflating the stored ``E`` by ``max(δ, |rate estimate|)`` per local
  second of downtime.  The clock kept drifting while the server was down
  and the checkpoint interval contained true time when written, so the
  inflated interval still does — Theorem 1 carried through the outage.
  A missing, corrupt, torn, or stale checkpoint falls back to the
  cold-start bootstrap (the operator-set ``cold_error``), exactly like
  the paper's rejoin path.  Every restart appends a
  :class:`RestartReport` recording whether the rebuilt interval was
  actually correct at revival (oracle check, for experiments and tests).
* **Census** — each judged poll reply feeds a direct verdict into the
  :class:`~repro.recovery.census.ConsistencyCensus`; outgoing replies
  piggyback the fresh census (gossip) and the server's merge epoch.
* **Epochs** — a counter bumped on every applied merge (recovery reset),
  adopting ``max(own, arbiter's) + 1`` so epoch order tracks "how
  recently consolidated" a group is; the stabilizer breaks ties on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.sync import Reply
from ..service.messages import TimeReply
from ..service.rate_tracking import RateTrackingStage
from ..service.server import Stage, TimeServer
from .census import ConsistencyCensus
from .stabilizer import StabilizerConfig
from .store import Checkpoint, StableStore


@dataclass(frozen=True)
class RestartReport:
    """What one restart did, scored by the oracle at the instant of revival.

    Attributes:
        server: The restarting server.
        at: True (simulation) time of the restart.
        warm: True when the interval was rebuilt from a checkpoint,
            False on a cold-start bootstrap.
        downtime_local: Local-clock seconds between the last checkpoint
            and the restart (0.0 for cold starts).
        rebuilt_error: The ``ε`` the server came back with.
        correct: Whether the rebuilt interval contained true time at
            revival — the acceptance oracle for warm restarts.
    """

    server: str
    at: float
    warm: bool
    downtime_local: float
    rebuilt_error: float
    correct: bool


class StabilizingStage(Stage):
    """Wires a rate-tracking server into the recovery subsystem.

    Needs a :class:`~repro.service.rate_tracking.RateTrackingStage`
    earlier in the stage list.  The merge epoch and the local time of
    the last merge are rebound as the server runs, so they live on the
    server itself: ``server.epoch``, ``server.last_merge_local``.

    Args:
        store: The shared simulated stable store (one per service).
        config: Subsystem knobs; also consumed by a bound
            :class:`~repro.recovery.stabilizer.SelfStabilizingRecovery`.
            Defaults to :class:`StabilizerConfig`'s defaults.
    """

    exports = ("census", "epoch_of", "restart_reports", "crash", "restart")

    def __init__(
        self, store: StableStore, config: Optional[StabilizerConfig] = None
    ) -> None:
        self._store = store
        self.stabilizer_config = (
            config if config is not None else StabilizerConfig()
        )
        self.restart_reports: List[RestartReport] = []
        self._neighbour_epochs: Dict[str, int] = {}
        self._checkpoint_seq = 0
        self._pending_arbiter_epoch: Optional[int] = None

    def attach(self, server: TimeServer) -> None:
        super().attach(server)
        self.rates = self.need(RateTrackingStage)
        self.census = ConsistencyCensus(
            owner=server.name, horizon=self.stabilizer_config.census_horizon
        )
        server.epoch = 0
        server.last_merge_local = None
        # A bindable strategy (SelfStabilizingRecovery) gets its server.
        bind = getattr(server.recovery, "bind", None)
        if callable(bind):
            bind(server)

    def epoch_of(self, neighbour: str) -> int:
        """The neighbour's last gossiped merge epoch (0 when unheard)."""
        return self._neighbour_epochs.get(neighbour, 0)

    # ------------------------------------------------------------ lifecycle

    def after_start(self) -> None:
        self._schedule_checkpoints()

    def _schedule_checkpoints(self) -> None:
        period = self.stabilizer_config.checkpoint_period
        self.server.every(
            period, self._write_checkpoint, first_at=self.server.now + period
        )

    def after_rejoin(self, initial_error: float) -> None:
        # leave()/crash() cancelled every periodic task, including the
        # checkpointer; polling is re-armed by the base rejoin, the
        # checkpointer here.
        self._schedule_checkpoints()

    # --------------------------------------------------------- checkpointing

    def _own_rate_estimate(self) -> float:
        """Best guess at the *local* oscillator's skew magnitude.

        The rate machinery measures separation against neighbours, not the
        local skew directly.  When the common-mode test says the local
        clock is the problem, the largest dissonant separation rate is a
        (conservative) bound on our own skew; otherwise the local clock is
        behaving and 0.0 — i.e. the claimed δ — is the right inflation.
        """
        if not self.rates.self_suspect():
            return 0.0
        rates = [
            abs(report.estimate.rate)
            for report in self.rates.rate_reports().values()
            if report.consonant is False and report.estimate is not None
        ]
        return max(rates, default=0.0)

    def _write_checkpoint(self) -> None:
        server = self.server
        if server.departed:
            return
        value, error = server.report()
        self._checkpoint_seq += 1
        extras: dict = {}
        for stage in server.stages:
            extras.update(stage.checkpoint_fields())
        self._store.write(
            Checkpoint(
                server=server.name,
                clock_value=value,
                error=error,
                rate_estimate=self._own_rate_estimate(),
                epoch=server.epoch,
                sequence=self._checkpoint_seq,
                **extras,
            )
        )
        server._trace("checkpoint", clock_value=value, error=error)
        server.telemetry.checkpoint(server.now)

    # --------------------------------------------------------- crash/restart

    def crash(self) -> None:
        """Abrupt kill: stop serving and polling; the clock keeps drifting.

        Unlike a graceful ``leave``, a crash is what the checkpoint
        subsystem exists for — the last durable state is whatever the
        periodic checkpointer managed to persist.
        """
        if self.server.departed:
            return
        self.server._trace("crash")
        self.server.leave()

    def restart(self, cold_error: float) -> Optional[RestartReport]:
        """Come back from a crash, warm if the stable store allows it.

        Args:
            cold_error: The operator-set ε used when no usable checkpoint
                exists (missing, corrupt, torn, or stale) — the paper's
                original rejoin bootstrap.

        Returns:
            The :class:`RestartReport` for this revival, or None if the
            server was not down.
        """
        server = self.server
        if not server.departed:
            return None
        checkpoint = self._store.read(server.name)
        now_local = server.clock.read(server.now)
        downtime_local = 0.0
        if checkpoint is not None:
            downtime_local = now_local - checkpoint.clock_value
            if not (
                0.0 <= downtime_local <= self.stabilizer_config.checkpoint_stale_after
            ):
                checkpoint = None
        if checkpoint is not None:
            # ρ·downtime inflation: the clock drifted at most
            # max(δ, measured |skew|) per local second while down.
            rho = max(server.delta, abs(checkpoint.rate_estimate))
            server.rejoin(checkpoint.error + downtime_local * rho)
            server.epoch = checkpoint.epoch
        else:
            downtime_local = 0.0
            server.rejoin(cold_error)
        for stage in server.stages:
            stage.restore_checkpoint(checkpoint)
        report = RestartReport(
            server=server.name,
            at=server.now,
            warm=checkpoint is not None,
            downtime_local=downtime_local,
            rebuilt_error=server.epsilon,
            correct=server.is_correct(),
        )
        self.restart_reports.append(report)
        server._trace(
            "restart",
            warm=report.warm,
            rebuilt_error=report.rebuilt_error,
            correct=report.correct,
        )
        server.telemetry.restart(server.now, report.warm)
        server.telemetry.epoch(server.epoch)
        return report

    # ------------------------------------------------------- census plumbing

    def _reply_extras(self, extras: dict) -> dict:
        extras["epoch"] = self.server.epoch
        extras["verdicts"] = self.census.export(self.server.clock_value())
        return extras

    def _observe_reply(
        self, reply: TimeReply, rtt_local: float, local_now: float
    ) -> None:
        self._neighbour_epochs[reply.server] = reply.epoch
        self.census.merge(reply.verdicts, local_now)
        # Direct verdict: same consistency judgment the policies use —
        # the reply aged across its transit against the local interval.
        judged = Reply(
            server=reply.server,
            clock_value=reply.clock_value,
            error=reply.error,
            rtt_local=rtt_local,
        )
        ok = judged.transit_interval(self.server.delta).intersects(
            self.server.local_state().interval
        )
        self.census.observe(reply.server, ok, local_now)

    # ---------------------------------------------------------------- merges

    def before_recovery_reply(self, reply: TimeReply) -> None:
        # The arbiter's epoch, for the merge the base may be about to apply.
        self._pending_arbiter_epoch = reply.epoch
        self._neighbour_epochs[reply.server] = reply.epoch

    def after_reset(self, decision, kind: str) -> None:
        if kind != "recovery":
            return
        server = self.server
        peer_epoch = self._pending_arbiter_epoch
        self._pending_arbiter_epoch = None
        if peer_epoch is None:
            peer_epoch = server.epoch
        server.epoch = max(server.epoch, peer_epoch) + 1
        server.last_merge_local = server.clock_value()
        server.telemetry.merge(server.now, server.epoch)
        # A merge is a state the group must not lose to a crash.
        self._write_checkpoint()

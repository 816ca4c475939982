"""The holdover stage: discipline + recovery + safety rails.

:class:`HoldoverStage` is the integration point of the clock-safety
subsystem.  It runs over the two stacks grown by earlier subsystems —

* :class:`~repro.service.discipline.DisciplineStage` (Section 5
  consonance rate servo over a rate-adjustable clock), and
* :class:`~repro.recovery.server.StabilizingStage` (durable
  checkpoints, consistency census, merge epochs)

— on a server whose clock is a :class:`~repro.clocks.slewing.SlewingClock`
over a :class:`~repro.clocks.disciplined.DisciplinedClock`, and drives a
:class:`~repro.holdover.controller.HoldoverController`:

* **Round-source accounting.**  Every poll round reports how many valid
  sources it produced (watermarked stats deltas — robust to both
  incremental MM and batch IM policies) to the controller, which decides
  SYNCED/HOLDOVER/DEGRADED/REINTEGRATING.
* **Reset suppression = staged reintegration.**  While the controller is
  not ``SYNCED``, sync and recovery resets are *suppressed* (counted and
  traced, never applied): the first ``reintegrate_rounds`` consistent
  rounds after a blackout re-validate the sources without trusting them,
  and rule MM-1 keeps the claimed interval correct throughout because
  ``E`` never stopped growing at the claimed ``δ``.  The first round
  after returning to ``SYNCED`` adopts normally — through the slewing
  rail, so the accumulated offset drains without a monotonicity break.
* **Safety rails.**  Insane resets (beyond the clock's sanity bound) are
  refused *before* any server bookkeeping runs — ``ε``, ``r_i``, the
  merge epoch and the raw-timescale adjustment all stay untouched — and
  counted.  Accepted slewed resets widen ``ε`` by the still-draining
  remainder (:class:`~repro.service.server.SlewRail`, which any server
  with a slewing clock carries), since the reading has not yet reached
  the adopted target.
* **Discipline freeze.**  The rate servo only steps while ``SYNCED`` and
  not mid-slew (a draining offset would bias every rate estimate); in
  holdover the last disciplined correction is the oscillator model.
* **Degraded refusal.**  Past the trust horizon, client requests get a
  ``BUSY`` reply with a retry hint.  Poll and recovery requests are
  still answered — MM-1 keeps them correct, and an all-degraded
  neighbourhood must be able to bootstrap its own reintegration.

The servo state itself (rate correction, estimator windows) rides the
checkpoint as the discipline stage's field, so a warm restart resumes
holdover-quality timekeeping.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..recovery.server import StabilizingStage
from ..service.discipline import DisciplineStage
from ..service.messages import ReplyStatus, RequestKind, TimeReply, TimeRequest
from ..service.server import Stage, TimeServer
from ..telemetry.registry import CounterBackedStats, CounterField
from .controller import HoldoverConfig, HoldoverController, HoldoverState

__all__ = ["HoldoverStage", "HoldoverStats"]


class HoldoverStats(CounterBackedStats):
    """Safety-rail counters (registry-backed; see ``docs/observability.md``)."""

    prefix = "repro_"

    insane_resets = CounterField(
        "Resets refused outright for exceeding the sanity bound"
    )
    suppressed_resets = CounterField(
        "Resets suppressed while not SYNCED (staged reintegration)"
    )
    holdover_entries = CounterField("Transitions into HOLDOVER from SYNCED")
    degraded_transitions = CounterField(
        "Watchdog transitions HOLDOVER -> DEGRADED (trust horizon exceeded)"
    )
    reintegrations = CounterField(
        "Completed reintegrations (REINTEGRATING -> SYNCED)"
    )
    degraded_refusals = CounterField(
        "Client requests refused with BUSY while DEGRADED"
    )


class HoldoverStage(Stage):
    """Holdover state machine and reset rails over a disciplined,
    self-stabilizing server.

    Needs a :class:`~repro.service.discipline.DisciplineStage` and a
    :class:`~repro.recovery.server.StabilizingStage` earlier in the
    stage list.

    Args:
        config: The holdover/safety-rail configuration (None uses
            :class:`HoldoverConfig` defaults).  The slew-rail knobs in it
            are consumed by the builder when it constructs the clock
            stack; this stage only requires the clock it finds to *have*
            the rails.

    Raises:
        TypeError: At attach, if the clock lacks the slewing-rail surface
            (``sanity_bound``/``slew_remaining``/``slewed_out``) — wrap
            it in a :class:`~repro.clocks.slewing.SlewingClock`.
    """

    exports = ("holdover", "holdover_config", "holdover_stats", "holdover_age_now")

    def __init__(self, config: Optional[HoldoverConfig] = None) -> None:
        self.holdover_config = config if config is not None else HoldoverConfig()
        self.holdover = HoldoverController(self.holdover_config)
        # (round_id, replies_handled, inconsistencies) at round start.
        self._source_watermark: Optional[tuple[int, int, int]] = None

    def attach(self, server: TimeServer) -> None:
        super().attach(server)
        discipline = self.need(DisciplineStage)
        self.need(StabilizingStage)
        for attr in ("sanity_bound", "slew_remaining", "slewed_out", "slewing"):
            if not hasattr(server.clock, attr):
                raise TypeError(
                    "holdover requires a clock with slewing rails "
                    f"(SlewingClock); {type(server.clock).__name__} has no "
                    f"{attr!r}"
                )
        self.rates = discipline.rates
        discipline.frozen = self._servo_frozen
        self.holdover.reanchor(server.clock.read(server.now))
        self.holdover_stats = HoldoverStats(server.telemetry.stats_registry())

    # ------------------------------------------------------------ lifecycle

    def after_start(self) -> None:
        server = self.server
        period = server.tau if server.tau is not None else 60.0
        server.every(period, self._holdover_tick, first_at=server.now + period)

    def after_rejoin(self, initial_error: float) -> None:
        # The downtime gap must not read as a source blackout.
        self.holdover.reanchor(self.server.clock.read(self.server.now))

    # ---------------------------------------------------------- observation

    def holdover_age_now(self) -> float:
        """Local seconds since holdover began (0.0 while SYNCED)."""
        return self.holdover.holdover_age(self.server.clock_value())

    def expected_true_error(self) -> float:
        """The consonance-backed expected true error (not the claimed E)."""
        return self.holdover.expected_error(self.server.clock_value())

    def effective_drift_estimate(self) -> float:
        """Median measured |separation rate| over consonant neighbours.

        With the servo converged this is the residual drift of the
        *disciplined* oscillator — the right rate for projecting expected
        true error through a blackout.  Falls back to the claimed ``δ``
        when no estimator has produced anything yet; the controller
        floors the result at ``drift_floor`` either way.
        """
        rates = [
            abs(report.estimate.rate)
            for report in self.rates.rate_reports().values()
            if report.estimate is not None and report.consonant is not False
        ]
        if not rates:
            return self.server.delta
        return float(np.median(rates))

    # ------------------------------------------------------- state machine

    def _drive(self, fn) -> None:
        """Run a controller mutation, then trace/count any transition."""
        before = self.holdover.state
        fn()
        after = self.holdover.state
        if after is before:
            return
        if after is HoldoverState.HOLDOVER and before is HoldoverState.SYNCED:
            self.holdover_stats.holdover_entries += 1
        elif after is HoldoverState.DEGRADED:
            self.holdover_stats.degraded_transitions += 1
        elif after is HoldoverState.SYNCED:
            self.holdover_stats.reintegrations += 1
        self.server._trace(
            "holdover",
            state=after.name,
            prev=before.name,
            age=self.holdover.holdover_age(self.server.clock_value()),
        )

    def _holdover_tick(self) -> None:
        now_local = self.server.clock_value()
        self._drive(
            lambda: self.holdover.tick(
                now_local,
                error=self.server.error(),
                drift=self.effective_drift_estimate(),
            )
        )

    def _on_round_started(self, round_) -> None:
        self._source_watermark = (
            round_.round_id,
            self.server.stats.replies_handled,
            self.server.stats.inconsistencies,
        )

    def after_round(self, round_) -> None:
        # Watermark deltas: valid replies and inconsistencies attributable
        # to exactly this round, whether the policy acted incrementally
        # (MM, during _handle_reply) or at close (IM, inside the base's
        # _complete_round).  Rounds that closed at start (nothing
        # reachable) carry no watermark and correctly report zero sources.
        stats = self.server.stats
        watermark = self._source_watermark
        sources = 0
        inconsistencies = 0
        if watermark is not None and watermark[0] == round_.round_id:
            sources = stats.replies_handled - watermark[1]
            inconsistencies = stats.inconsistencies - watermark[2]
            self._source_watermark = None
        now_local = self.server.clock_value()
        self._drive(
            lambda: self.holdover.note_round(
                now_local,
                sources=sources,
                consistent=(sources > 0 and inconsistencies == 0),
                error=self.server.error(),
                drift=self.effective_drift_estimate(),
            )
        )

    # ------------------------------------------------------------ discipline

    def _servo_frozen(self) -> bool:
        # Holdover freezes the servo at its last correction, and a
        # draining offset would bias every rate estimate.
        return (
            self.holdover.state is not HoldoverState.SYNCED
            or self.server.clock.slewing
        )

    # ---------------------------------------------------------------- resets

    def before_reset(self, decision, kind: str) -> bool:
        """Refuse insane resets and suppress resets while not SYNCED."""
        if kind not in ("sync", "recovery"):
            return False
        server = self.server
        current = server.clock.read(server.now)
        if abs(decision.clock_value - current) > server.clock.sanity_bound:
            # Refused before any bookkeeping: ε, r_i, the epoch and
            # the raw-timescale adjustment all stay untouched.  The
            # clock still sees the set so its own rail counter trips.
            server.clock.set(server.now, decision.clock_value)
            self.holdover_stats.insane_resets += 1
            server._trace(
                "reset_refused",
                from_server=decision.source,
                new_value=decision.clock_value,
                reset_kind=kind,
            )
            return True
        if self.holdover.state is not HoldoverState.SYNCED:
            # Staged reintegration: re-validate before trusting.  The
            # claimed interval stays correct (MM-1 growth never
            # paused), so skipping the adoption loses accuracy only.
            self.holdover_stats.suppressed_resets += 1
            server._trace(
                "reset_suppressed",
                from_server=decision.source,
                reset_kind=kind,
                state=self.holdover.state.name,
            )
            return True
        return False

    # ---------------------------------------------------------------- serving

    def before_answer(self, request: TimeRequest) -> bool:
        """Refuse client requests with BUSY while DEGRADED."""
        if not (
            self.holdover.state is HoldoverState.DEGRADED
            and request.kind is RequestKind.CLIENT
        ):
            return False
        # Past the trust horizon the oscillator model is no longer
        # trusted for clients; polls/recovery stay answered (MM-1
        # keeps those replies correct, and an all-degraded
        # neighbourhood must still be able to reintegrate).
        server = self.server
        self.holdover_stats.degraded_refusals += 1
        retry = self.holdover_config.retry_after or (server.tau or 60.0)
        server.network.send(
            server.name,
            request.origin,
            server._prepare_reply(
                TimeReply(
                    request_id=request.request_id,
                    server=server.name,
                    destination=request.origin,
                    clock_value=0.0,
                    error=0.0,
                    kind=request.kind,
                    delta=server.delta,
                    status=ReplyStatus.BUSY,
                    retry_after=retry,
                )
            ),
        )
        return True

"""Section 5 made operational: servers that track neighbour clock *rates*.

The paper's closing observation: a static arrangement of intervals cannot
reveal *why* a service went inconsistent — "instead, the rates of the
servers must be examined."  Two clocks are *consonant* when their measured
rate of separation is within the sum of their claimed drift bounds.

:class:`RateTrackingStage` gives a :class:`~repro.service.server.TimeServer`
that examination:

* It maintains a **raw local timescale** — its clock reading minus the sum
  of all adjustments applied by resets — which advances at the oscillator's
  natural rate regardless of synchronization steps.  (A real implementation
  reads a free-running counter; the subtraction is the simulation
  equivalent.)
* Every poll reply feeds a per-neighbour sliding-window
  :class:`~repro.core.consonance.RateEstimator` with the observed offset of
  the neighbour's clock against the raw timescale.
* :meth:`RateTrackingStage.dissonant_neighbours` names the neighbours
  whose measured separation rate exceeds ``δ_i + δ_j`` (the reply's carried
  δ) — the paper's diagnosis of invalid drift bounds.
* On an inconsistency, the server adds its dissonant neighbours to the
  recovery exclusion set, so *any* recovery strategy avoids picking a
  server with a provably bad rate as its arbiter.  This directly repairs
  the Section 5 breakdown (two bad neighbours poisoning the third-server
  rule): the ``partition`` experiment's poisoned recoveries drop to zero
  once rate tracking is on.

Caveat, faithfully inherited from the paper: the *remote* clock's resets
also perturb the measured offsets.  A healthy neighbour's corrections are
bounded by its (small) error, so the least-squares rate over the window
stays near the truth; a racing neighbour's rate dwarfs them.  The estimator
also reports a hard uncertainty, and the consonance verdict requires the
rate to exceed the bound by more than that uncertainty before flagging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.consonance import RateEstimate, RateEstimator, RateObservation
from .messages import TimeReply
from .server import Stage


@dataclass(frozen=True)
class NeighbourRateReport:
    """One neighbour's rate diagnosis.

    Attributes:
        neighbour: The neighbour's name.
        estimate: The current separation-rate estimate (None while the
            window is under-determined).
        remote_delta: The neighbour's claimed δ, as carried in its replies.
        consonant: The verdict: None = unknown, True = within bounds,
            False = provably separating faster than ``δ_i + δ_j``.
    """

    neighbour: str
    estimate: Optional[RateEstimate]
    remote_delta: float
    consonant: Optional[bool]


class RateTrackingStage(Stage):
    """The Section 5 rate machinery, as a server stage.

    Args:
        rate_window: Sliding-window size of each neighbour estimator.
        rate_min_span: Minimum raw-clock span before an estimate is
            produced (short spans are reading-error dominated).
    """

    exports = ("rate_report", "rate_reports", "dissonant_neighbours", "self_suspect")

    def __init__(self, rate_window: int = 16, rate_min_span: float = 30.0) -> None:
        self._rate_window = rate_window
        self._rate_min_span = rate_min_span
        self._estimators: Dict[str, RateEstimator] = {}
        self._remote_delta: Dict[str, float] = {}
        self._cumulative_adjustment = 0.0
        self._before_reset = 0.0

    # ------------------------------------------------------------ raw time

    @property
    def raw_clock_value(self) -> float:
        """The free-running timescale: clock reading minus all adjustments."""
        return self.server.clock_value() - self._raw_adjustment()

    def _raw_adjustment(self) -> float:
        """Total correction to subtract when recovering the raw timescale:
        every reset's jump, plus whatever a slewing clock bled into the
        reading *between* resets (its running ``slewed_out``) — so the
        estimators keep seeing the free-running oscillator."""
        return self._cumulative_adjustment + getattr(
            self.server.clock, "slewed_out", 0.0
        )

    def before_reset(self, decision, kind: str) -> None:
        self._before_reset = self.server.clock.read(self.server.now)

    def after_reset(self, decision, kind: str) -> None:
        after = self.server.clock.read(self.server.now)
        self._cumulative_adjustment += after - self._before_reset

    def new_estimator(self) -> RateEstimator:
        """An empty estimator with this stage's window settings."""
        return RateEstimator(window=self._rate_window, min_span=self._rate_min_span)

    def forget(self) -> None:
        """Drop every neighbour's window (a crash loses RAM)."""
        self._estimators.clear()
        self._remote_delta.clear()

    # ------------------------------------------------------------- tracking

    def _observe_reply(self, reply: TimeReply, rtt_local: float, local_now: float) -> None:
        raw_local = local_now - self._raw_adjustment()
        estimator = self._estimators.get(reply.server)
        if estimator is None:
            estimator = self._estimators[reply.server] = self.new_estimator()
        # Midpoint delay compensation; the reading error budget is the
        # remote interval plus the unresolvable delay asymmetry.
        offset = reply.clock_value + rtt_local / 2.0 - raw_local
        reading_error = reply.error + rtt_local / 2.0
        estimator.add(
            RateObservation(
                local_time=raw_local, offset=offset, reading_error=reading_error
            )
        )
        self._remote_delta[reply.server] = reply.delta

    def rate_report(self, neighbour: str) -> NeighbourRateReport:
        """The current diagnosis for one neighbour."""
        estimator = self._estimators.get(neighbour)
        estimate = estimator.estimate() if estimator is not None else None
        remote_delta = self._remote_delta.get(neighbour, 0.0)
        verdict: Optional[bool] = None
        if estimate is not None:
            # Diagnostic margin: the statistical noise when the sample path
            # is actually linear, never exceeding the hard worst-case bound.
            allowance = self.server.delta + remote_delta + estimate.noise
            verdict = abs(estimate.rate) <= allowance
        return NeighbourRateReport(
            neighbour=neighbour,
            estimate=estimate,
            remote_delta=remote_delta,
            consonant=verdict,
        )

    def rate_reports(self) -> Dict[str, NeighbourRateReport]:
        """Diagnoses for every neighbour heard from so far."""
        return {name: self.rate_report(name) for name in sorted(self._estimators)}

    def dissonant_neighbours(self) -> list[str]:
        """Neighbours provably separating faster than the claimed bounds."""
        return [
            name
            for name, report in self.rate_reports().items()
            if report.consonant is False
        ]

    def self_suspect(self) -> bool:
        """Whether this server's *own* rate is the likely problem.

        If a majority of measured neighbours are dissonant **and** their
        separation rates share a sign, the common-mode explanation is the
        local oscillator: everyone else appears to drift the same way
        because *we* are the one drifting.  This closes a blind spot of
        pure neighbour-flagging: a bad clock that is continually yanked
        back by recovery shows its peers a near-zero net rate (the resets
        cancel the drift in their observations), but its own free-running
        raw timescale still sees the whole service receding coherently.
        """
        reports = [r for r in self.rate_reports().values() if r.estimate is not None]
        if len(reports) < 2:
            return False
        dissonant = [r for r in reports if r.consonant is False]
        if 2 * len(dissonant) <= len(reports):
            return False
        signs = {1 if r.estimate.rate > 0 else -1 for r in dissonant}  # type: ignore[union-attr]
        return len(signs) == 1

    # ------------------------------------------------------------- recovery

    def before_inconsistency(self, conflicting: tuple[str, ...]) -> tuple[str, ...]:
        # Widen the recovery exclusion set with every neighbour whose rate
        # is provably bad: the Section 5 fix for arbiter poisoning.
        return tuple(dict.fromkeys(conflicting + tuple(self.dissonant_neighbours())))

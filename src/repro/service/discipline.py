"""A frequency-disciplining time server (the Section 5 programme, closed).

:class:`~repro.service.rate_tracking.RateTrackingStage` measures how
fast each neighbour's clock separates from the local raw timescale.  If the local oscillator runs fast,
*every* neighbour appears to drift slow by the same amount — so the median
measured separation rate is an estimate of (minus) the local clock's own
effective skew relative to the service.  :class:`DisciplineStage` closes
the loop: it periodically nudges a software rate correction
(:class:`~repro.clocks.disciplined.DisciplinedClock`) by a damped step of
that median, with a deadband at the estimators' own uncertainty so noise is
never chased.

What this buys, and what it cannot: rule MM-1 grows the *claimed* error at
the claimed δ regardless, so the reported intervals do not shrink — but the
clocks' true offsets and mutual asynchronism do, substantially (see the
``discipline`` experiment).  This is exactly NTP's frequency-discipline
insight, grown from the paper's consonance sketch.

The servo state — the rate correction and the per-neighbour estimator
windows it steers by — is this stage's checkpoint field (``discipline``):
a crash loses RAM and the kernel frequency word (modelled by zeroing
both), and a warm restart re-applies them, resuming holdover-quality
timekeeping instead of relearning the oscillator from scratch.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..core.consonance import RateObservation
from .rate_tracking import RateTrackingStage
from .server import Stage, TimeServer

#: Characters the discipline checkpoint blob reserves as separators.
_RESERVED = set("|~:;,")


class DisciplineStage(Stage):
    """Trims the server's own clock frequency from the measured rates.

    Needs a :class:`RateTrackingStage` earlier in the stage list.

    Args:
        discipline_period: Seconds between correction updates (defaults to
            four poll periods — the estimators need fresh windows between
            steps).
        gain: Fraction of the measured median separation rate applied per
            step; ``<= 1`` for stability, lower = smoother.

    Raises:
        TypeError: At attach, if the server's clock is not rate-adjustable
            (a :class:`~repro.clocks.disciplined.DisciplinedClock` or an
            adapter over one) — there is nothing to adjust otherwise.
    """

    def __init__(
        self, discipline_period: Optional[float] = None, gain: float = 0.5
    ) -> None:
        if not 0.0 < gain <= 1.0:
            raise ValueError(f"gain must be in (0, 1], got {gain}")
        if discipline_period is not None and discipline_period <= 0:
            raise ValueError(
                f"discipline_period must be positive, got {discipline_period}"
            )
        self.discipline_period = discipline_period
        self.gain = float(gain)
        self.discipline_steps = 0
        #: Set by a stage that can freeze the servo (holdover): the step
        #: is skipped while it returns True.
        self.frozen: Optional[Callable[[], bool]] = None

    def attach(self, server: TimeServer) -> None:
        super().attach(server)
        self.rates = self.need(RateTrackingStage)
        # Duck-typed: a DisciplinedClock, or any adapter (e.g. a
        # SlewingClock over one) that forwards the rate-servo surface.
        if not hasattr(server.clock, "adjust_rate"):
            raise TypeError(
                "discipline requires a rate-adjustable clock "
                f"such as DisciplinedClock (got {type(server.clock).__name__})"
            )
        if self.discipline_period is None:
            self.discipline_period = 4.0 * (server.tau or 60.0)

    def after_start(self) -> None:
        self.server.every(self.discipline_period, self._discipline_step)

    def _discipline_step(self) -> None:
        """One pass of the frequency loop."""
        if self.frozen is not None and self.frozen():
            return
        rates = []
        uncertainties = []
        for report in self.rates.rate_reports().values():
            estimate = report.estimate
            if estimate is None:
                continue
            # Skip provably-bad neighbours: a racing clock would drag the
            # median (with few neighbours) toward its own lie.
            if report.consonant is False:
                continue
            rates.append(estimate.rate)
            uncertainties.append(estimate.uncertainty)
        if not rates:
            return
        median_rate = float(np.median(rates))
        deadband = float(np.median(uncertainties))
        if abs(median_rate) <= deadband:
            return  # indistinguishable from measurement noise
        # Neighbours separating at +r means we run slow by ~r: speed up.
        clock = self.server.clock  # duck-typed: DisciplinedClock or an adapter
        applied = clock.adjust_rate(
            self.server.now, clock.correction + self.gain * median_rate
        )
        self.discipline_steps += 1
        self.server._trace(
            "discipline",
            median_rate=median_rate,
            correction=applied,
        )

    # ---------------------------------------------------- discipline persist

    def checkpoint_fields(self) -> dict:
        return {"discipline": self._encode_discipline()}

    def _encode_discipline(self) -> str:
        """Serialise the servo state into the checkpoint's blob field.

        ``correction~name:delta:t,o,e;t,o,e~name:...`` — none of the
        separators may appear in a float ``repr``, and neighbours whose
        names collide with them are skipped rather than corrupting the
        record.
        """
        rates = self.rates
        parts = [repr(float(self.server.clock.correction))]
        for name in sorted(rates._estimators):
            if _RESERVED & set(name):
                continue
            observations = ";".join(
                f"{o.local_time!r},{o.offset!r},{o.reading_error!r}"
                for o in rates._estimators[name]._obs
            )
            delta = rates._remote_delta.get(name, 0.0)
            parts.append(f"{name}:{delta!r}:{observations}")
        return "~".join(parts)

    def _forget(self) -> None:
        self.server.clock.adjust_rate(self.server.now, 0.0)
        self.rates.forget()

    def restore_checkpoint(self, checkpoint) -> None:
        # A crash loses RAM and the kernel frequency word: zero the rate
        # correction and drop the estimator windows, then re-apply
        # whatever the checkpoint preserved.
        self._forget()
        blob = getattr(checkpoint, "discipline", "")
        if not blob:
            return
        try:
            self._decode_discipline(blob)
        except (ValueError, IndexError):
            # A garbled extras field never blocks the warm restart — the
            # MM-1 core state was already validated by the store's CRC;
            # the servo just relearns.
            self._forget()

    def _decode_discipline(self, blob: str) -> None:
        rates = self.rates
        parts = blob.split("~")
        correction = float(parts[0])
        self.server.clock.adjust_rate(self.server.now, correction)
        for entry in parts[1:]:
            name, delta_text, observations = entry.split(":", 2)
            estimator = rates.new_estimator()
            if observations:
                for triple in observations.split(";"):
                    t_text, o_text, e_text = triple.split(",")
                    estimator.add(
                        RateObservation(
                            local_time=float(t_text),
                            offset=float(o_text),
                            reading_error=float(e_text),
                        )
                    )
            rates._estimators[name] = estimator
            rates._remote_delta[name] = float(delta_text)

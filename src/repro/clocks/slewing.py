"""Slew/step safety rails over a settable clock.

The synchronization rules treat :meth:`~repro.clocks.base.Clock.set` as
instantaneous — the paper allows clocks to be "freely set backward as
well as forward" (Section 1.1).  Production time daemons do not: ntpd
amortises small corrections at a bounded *slew* rate (≤ 500 ppm), steps
only beyond a panic threshold, and refuses corrections so large they are
more plausibly a poisoned source than a bad clock.  This module grows
that policy as a composable adapter.

:class:`SlewingClock` wraps any settable clock (in this repository,
usually a :class:`~repro.clocks.disciplined.DisciplinedClock` over the
raw oscillator) and intercepts resets:

* a reset whose correction magnitude exceeds ``sanity_bound`` is
  **rejected** outright and counted (``insane_resets``) — the reading is
  left untouched, so the caller must notice and keep its error bound
  honest;
* a *forward* correction beyond ``panic_threshold`` is **stepped**
  (applied instantly — waiting hours to slew a huge forward offset helps
  nobody, and forward steps cannot violate monotonicity);
* everything else — all backward corrections, and small forward ones —
  is **slewed**: the pending offset is bled into the reading at
  ``slew_rate`` seconds per second of inner-clock progress.  With
  ``slew_rate < 1`` the adapter's reading is monotone even while a
  backward correction drains, which is why backward corrections are
  never stepped regardless of size.

Each accepted reset *replaces* the pending offset (the new target says
where the clock should be **now**; any undrained remainder of an older
correction is superseded).  Rate-discipline calls (``adjust_rate``,
``correction``, ``effective_skew``) delegate to the inner clock when it
supports them, so :class:`SlewingClock` slots under the discipline
stage unchanged.
"""

from __future__ import annotations

from .base import Clock

__all__ = ["SlewingClock"]


class SlewingClock(Clock):
    """Bounded-slew, panic-step, sanity-checked view over a settable clock.

    Args:
        inner: The underlying settable clock (its reading must be
            non-decreasing between resets; every clock in this repository
            qualifies — drift rates are tiny compared to 1).
        slew_rate: Seconds of correction drained per second of inner
            progress while a reset is pending.  Must lie in ``(0, 1)``;
            monotonicity of the adapter's reading under backward
            corrections depends on it.  ntpd's value is 5e-4.
        panic_threshold: Forward corrections larger than this are stepped
            instantly instead of slewed.  Backward corrections are always
            slewed (a backward step would break monotonicity).
        sanity_bound: Corrections with magnitude beyond this are rejected
            and counted in :attr:`insane_resets` — the reading does not
            move at all.
    """

    def __init__(
        self,
        inner: Clock,
        *,
        slew_rate: float = 5e-3,
        panic_threshold: float = 0.5,
        sanity_bound: float = 1000.0,
    ) -> None:
        super().__init__()
        if not 0.0 < slew_rate < 1.0:
            raise ValueError(f"slew_rate must be in (0, 1), got {slew_rate}")
        if panic_threshold <= 0:
            raise ValueError(
                f"panic_threshold must be positive, got {panic_threshold}"
            )
        if sanity_bound <= panic_threshold:
            raise ValueError(
                "sanity_bound must exceed panic_threshold "
                f"({sanity_bound} <= {panic_threshold})"
            )
        self.inner = inner
        self.slew_rate = float(slew_rate)
        self.panic_threshold = float(panic_threshold)
        self.sanity_bound = float(sanity_bound)
        self._offset = 0.0  # correction already applied to the reading
        self._pending = 0.0  # correction still to drain
        self._slewed_out = 0.0  # cumulative gradually-applied correction
        self._last_inner: float | None = None
        self._last_value: float | None = None
        self._insane_resets = 0
        self._steps = 0

    # ------------------------------------------------------------ inspection

    @property
    def slew_remaining(self) -> float:
        """Signed correction still to drain (0 when fully converged)."""
        return self._pending

    @property
    def slewed_out(self) -> float:
        """Total correction applied *gradually* (excludes instant steps).

        The rate-tracking raw timescale subtracts stepped corrections by
        observing the reading jump around :meth:`set`; gradual draining
        produces no jump, so trackers subtract this instead.
        """
        return self._slewed_out

    @property
    def insane_resets(self) -> int:
        """Resets rejected for exceeding the sanity bound."""
        return self._insane_resets

    @property
    def steps(self) -> int:
        """Resets applied instantly (forward, beyond the panic threshold)."""
        return self._steps

    @property
    def slewing(self) -> bool:
        """Whether a correction is still draining."""
        return self._pending != 0.0

    # --------------------------------------------------------------- reading

    def _read(self, t: float) -> float:
        inner_now = self.inner.read(t)
        if self._last_inner is None or self._last_value is None:
            self._last_inner = inner_now
            self._last_value = inner_now + self._offset
            return self._last_value
        advance = inner_now - self._last_inner
        self._last_inner = inner_now
        if advance <= 0.0:
            # Defensive: a stalled (or, impossibly, backward) inner clock
            # holds the reading; nothing drains without progress.
            return self._last_value
        if self._pending:
            drain = min(self.slew_rate * advance, abs(self._pending))
            if self._pending < 0:
                drain = -drain
            self._pending -= drain
            self._offset += drain
            self._slewed_out += drain
        # With slew_rate < 1 a negative drain never exceeds the advance,
        # so the reading is non-decreasing even mid backward correction.
        self._last_value = inner_now + self._offset
        return self._last_value

    # --------------------------------------------------------------- setting

    def _apply_set(self, t: float, value: float) -> None:
        current = self._read(t)
        delta = value - current
        if abs(delta) > self.sanity_bound:
            self._insane_resets += 1
            return
        if delta > self.panic_threshold:
            # Forward panic step: land on the target now.  The pending
            # remainder of any older correction is superseded (discarded,
            # not applied — it never reached the reading).
            self._offset += delta
            self._pending = 0.0
            self._steps += 1
            self._last_value = current + delta
            return
        # Slew: the target says where the reading should be *now*, so the
        # new pending correction replaces (not adds to) the old one.
        self._pending = delta

    # ------------------------------------------------- discipline delegation

    @property
    def correction(self) -> float:
        """The inner clock's rate correction (0.0 if it has none)."""
        return getattr(self.inner, "correction", 0.0)

    def adjust_rate(self, t: float, correction: float) -> float:
        """Delegate rate discipline to the inner clock."""
        return self.inner.adjust_rate(t, correction)

    def effective_skew(self, raw_skew: float) -> float:
        """Delegate to the inner clock's skew composition when present."""
        inner_skew = getattr(self.inner, "effective_skew", None)
        if inner_skew is not None:
            return inner_skew(raw_skew)
        return raw_skew

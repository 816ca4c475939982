"""The discrete-event simulation engine.

:class:`SimulationEngine` owns the real-time axis and an event heap.  All the
substrates in this repository — drifting clocks, the message-passing network,
the time servers — are driven by callbacks scheduled on one engine instance.

Design notes
------------

* Real time is a ``float`` number of seconds.  The paper ignores terms of
  order ``δ²`` and our δ values are ~1e-6..1e-2, so double precision is far
  more than adequate for the horizons simulated here (hours to weeks).
* Determinism: events at equal times fire in scheduling order, and all
  randomness flows through named :class:`~repro.simulation.rng.RngRegistry`
  streams.  Two runs with the same seed produce identical traces.
* Ordering lives in the heap entries: the heap holds ``(time, seq, event)``
  tuples, ``seq`` drawn from one counter, so ``heapq`` orders them with
  C-level tuple comparison and no Python call (see
  :mod:`repro.simulation.events`).  Cancellation is lazy — a cancelled
  entry stays in the heap until it reaches the head, so :attr:`heap_depth`
  counts it and :attr:`pending_events` does not.
* :meth:`step` is the only place an event fires (:meth:`run` calls it once
  per event) and :meth:`schedule_at` the only place one is made.
* The engine never advances time backwards.  Scheduling an event in the past
  raises :class:`SchedulingError` — this catches a whole class of sign bugs
  in delay models.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, Iterable, Optional

from .events import Event, EventCallback


class SchedulingError(ValueError):
    """Raised when an event is scheduled before the current simulation time."""


class SimulationEngine:
    """A deterministic discrete-event simulator.

    Example:
        >>> engine = SimulationEngine()
        >>> fired = []
        >>> _ = engine.schedule_at(1.5, lambda: fired.append(engine.now))
        >>> _ = engine.schedule_after(0.5, lambda: fired.append(engine.now))
        >>> engine.run()
        >>> fired
        [0.5, 1.5]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current real (perfect-clock) time in seconds.  A plain attribute:
        #: every clock read and every schedule reads it.
        self.now = float(start_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._next_seq = itertools.count().__next__
        self._stopped = False
        self._events_processed = 0
        self._observer: Optional[Callable[["SimulationEngine", Event], None]] = None

    # ------------------------------------------------------------------ time

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events that will still fire (cancelled ones excluded)."""
        return sum(1 for _time, _seq, event in self._heap if not event.cancelled)

    @property
    def heap_depth(self) -> int:
        """Raw heap size (cancelled events included) — O(1), for telemetry."""
        return len(self._heap)

    def set_observer(
        self, observer: Optional[Callable[["SimulationEngine", Event], None]]
    ) -> None:
        """Install a per-event observer (or None to remove it).

        The observer is called as ``observer(engine, event)`` after each
        event's callback runs — the telemetry plane's engine hook.  At most
        one observer is supported; it must not schedule or cancel events.
        """
        self._observer = observer

    # ------------------------------------------------------------ scheduling

    def schedule_at(
        self, time: float, callback: EventCallback, label: str = ""
    ) -> Event:
        """Schedule ``callback`` to fire at absolute real time ``time``.

        Args:
            time: Absolute fire time; must be >= :attr:`now`.
            callback: Zero-argument callable.
            label: Optional tag recorded on the event for tracing.

        Returns:
            The scheduled :class:`Event`, which the caller may cancel.

        Raises:
            SchedulingError: If ``time`` precedes the current time.
        """
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule event at t={time} before current time "
                f"t={self.now}"
            )
        time = float(time)
        seq = self._next_seq()
        event = Event(time, seq, callback, label)
        heappush(self._heap, (time, seq, event))
        return event

    def schedule_after(
        self, delay: float, callback: EventCallback, label: str = ""
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Raises:
            SchedulingError: If ``delay`` is negative.
        """
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, callback, label)

    def schedule_periodic(
        self,
        period: float,
        callback: EventCallback,
        *,
        first_at: Optional[float] = None,
        label: str = "",
        jitter: Optional[Callable[[], float]] = None,
    ) -> "PeriodicTask":
        """Schedule ``callback`` to fire every ``period`` seconds.

        Args:
            period: Nominal seconds between firings; must be positive.
            callback: Zero-argument callable run at every firing.
            first_at: Absolute time of the first firing.  Defaults to
                ``now + period``.
            label: Tag for tracing.
            jitter: Optional callable returning an additive perturbation to
                each inter-firing gap (may be negative but the effective gap
                is clamped to be positive).

        Returns:
            A :class:`PeriodicTask` handle; call ``.cancel()`` to stop.
        """
        if period <= 0:
            raise SchedulingError(f"period must be positive, got {period}")
        task = PeriodicTask(self, period, callback, label=label, jitter=jitter)
        start = self.now + period if first_at is None else first_at
        task.start(start)
        return task

    # --------------------------------------------------------------- running

    def step(self) -> bool:
        """Fire the single next active event.

        Returns:
            True if an event fired, False if the heap held no active events.
        """
        heap = self._heap
        while heap:
            time, _seq, event = heappop(heap)
            if event.cancelled:
                continue
            self.now = time
            event.callback()
            self._events_processed += 1
            if self._observer is not None:
                self._observer(self, event)
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run events in order until exhaustion, a time horizon, or a budget.

        Args:
            until: If given, stop once the next active event would fire
                strictly after ``until`` and set :attr:`now` to ``until``.
            max_events: If given, fire at most this many events.

        The engine may be re-entered: calling :meth:`run` again resumes from
        the current state.  :meth:`stop` requests an early exit.
        """
        self._stopped = False
        heap = self._heap
        step = self.step
        horizon = float("inf") if until is None else until
        fired = 0
        while not self._stopped:
            if max_events is not None and fired >= max_events:
                break
            while heap and heap[0][2].cancelled:
                heappop(heap)
            if not heap or heap[0][0] > horizon:
                break
            step()
            fired += 1
        if until is not None and self.now < until:
            # No event remains inside the horizon: advance time to it so
            # callers can sample clocks exactly at the horizon.
            while heap and heap[0][2].cancelled:
                heappop(heap)
            if not heap or heap[0][0] > until:
                self.now = until

    def stop(self) -> None:
        """Request that a running :meth:`run` loop exit after the current event."""
        self._stopped = True

    # ------------------------------------------------------------- utilities

    def advance_to(self, time: float) -> None:
        """Run all events up to ``time`` and leave :attr:`now` == ``time``.

        Convenience wrapper over :meth:`run` used heavily by experiments that
        sample metrics on a fixed real-time grid.
        """
        if time < self.now:
            raise SchedulingError(
                f"cannot advance to t={time} before current time t={self.now}"
            )
        self.run(until=time)

    def sample_grid(
        self, start: float, stop: float, step: float
    ) -> Iterable[float]:
        """Yield grid times, advancing the simulation to each before yielding.

        Example:
            >>> engine = SimulationEngine()
            >>> [round(t, 3) for t in engine.sample_grid(0.0, 1.0, 0.5)]
            [0.0, 0.5, 1.0]
        """
        if step <= 0:
            raise SchedulingError(f"grid step must be positive, got {step}")
        t = start
        while t <= stop + 1e-12:
            self.advance_to(t)
            yield self.now
            t += step


class PeriodicTask:
    """Handle for a recurring event chain created by ``schedule_periodic``.

    Each firing schedules the next, so cancellation takes effect immediately
    and period/jitter changes would be straightforward to add.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        period: float,
        callback: EventCallback,
        *,
        label: str = "",
        jitter: Optional[Callable[[], float]] = None,
    ) -> None:
        self._engine = engine
        self._period = period
        self._callback = callback
        self._label = label
        self._jitter = jitter
        self._current: Optional[Event] = None
        self._cancelled = False
        self._firings = 0

    @property
    def firings(self) -> int:
        """How many times the task has fired."""
        return self._firings

    @property
    def cancelled(self) -> bool:
        """Whether the task has been stopped."""
        return self._cancelled

    def start(self, first_at: float) -> None:
        """Arm the first firing at absolute time ``first_at``."""
        if self._cancelled:
            return
        self._current = self._engine.schedule_at(
            first_at, self._fire, label=self._label
        )

    def cancel(self) -> None:
        """Stop the task; the pending firing (if any) is cancelled."""
        self._cancelled = True
        if self._current is not None:
            self._current.cancel()

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._firings += 1
        self._callback()
        if self._cancelled:
            return
        gap = self._period
        if self._jitter is not None:
            gap = max(1e-9, gap + self._jitter())
        self._current = self._engine.schedule_after(
            gap, self._fire, label=self._label
        )

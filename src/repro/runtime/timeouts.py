"""The wall-clock deadline plane.

:class:`TimeoutManager` is the live counterpart of the simulation
engine's event heap: the same ``(time, seq, event)`` heap entries and
:class:`~repro.simulation.events.Event` handles (so ordering and lazy
cancellation are identical), but *fired by the wall clock* — deadlines
are armed against ``time.monotonic()`` and an asyncio wait wakes the
pump either when the nearest deadline arrives or when a new, earlier
deadline is scheduled mid-sleep.

Every per-neighbour retry, adaptive EWMA timeout, and round deadline the
hardened server computes lands here (via
:class:`~repro.runtime.engine.WallClockEngine`), so the durations the
policy layer reasons about are measured against real round trips.
"""

from __future__ import annotations

import asyncio
import itertools
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from ..simulation.events import Event, EventCallback

__all__ = ["TimeoutManager"]


class TimeoutManager:
    """A monotonic-clock deadline heap with an asyncio wake-up.

    Args:
        time_source: Zero-argument callable returning the current time on
            the axis deadlines are expressed in (seconds).  The engine
            passes its epoch-anchored ``time.monotonic()`` reading.
    """

    def __init__(self, time_source: Callable[[], float]) -> None:
        self._time = time_source
        self._heap: List[Tuple[float, int, Event]] = []
        self._next_seq = itertools.count().__next__
        # Created lazily inside the running loop (asyncio primitives are
        # loop-bound); before the pump runs, scheduling just heaps.
        self._wakeup: Optional[asyncio.Event] = None
        self.fired = 0

    # ------------------------------------------------------------ scheduling

    def schedule(
        self, when: float, callback: EventCallback, label: str = ""
    ) -> Event:
        """Arm ``callback`` at absolute axis time ``when``.

        Returns the :class:`~repro.simulation.events.Event`, which the
        caller may ``cancel()`` exactly as in the simulator.
        """
        when = float(when)
        seq = self._next_seq()
        event = Event(when, seq, callback, label)
        heappush(self._heap, (when, seq, event))
        self._notify()
        return event

    def _notify(self) -> None:
        """Wake a pump sleeping past the (possibly new) nearest deadline."""
        if self._wakeup is not None:
            self._wakeup.set()

    # ------------------------------------------------------------ inspection

    @property
    def pending(self) -> int:
        """Active (non-cancelled) deadlines still armed."""
        return sum(1 for _when, _seq, event in self._heap if not event.cancelled)

    @property
    def heap_depth(self) -> int:
        """Raw heap size, cancelled entries included — O(1), telemetry."""
        return len(self._heap)

    def next_deadline(self) -> Optional[float]:
        """Axis time of the nearest active deadline, or None when idle.

        Cancelled heap heads are dropped on the way (lazy cancellation,
        same as the simulator's engine).
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    # ---------------------------------------------------------------- firing

    def fire_due(self, observer=None) -> int:
        """Fire every deadline at or before the current axis time.

        Args:
            observer: Optional ``(event) -> None`` called after each
                callback (the engine threads its telemetry observer
                through here).

        Returns:
            How many callbacks ran.
        """
        heap = self._heap
        count = 0
        while heap:
            when, _seq, event = heap[0]
            if event.cancelled:
                heappop(heap)
                continue
            if when > self._time():
                break
            heappop(heap)
            event.callback()
            self.fired += 1
            count += 1
            if observer is not None:
                observer(event)
        return count

    async def sleep_until_due(self, horizon: Optional[float] = None) -> None:
        """Sleep until the nearest deadline, a new earlier one, or ``horizon``.

        Args:
            horizon: Optional absolute axis time to wake by regardless of
                deadlines (the engine's ``run(until=...)``).
        """
        if self._wakeup is None:
            self._wakeup = asyncio.Event()
        self._wakeup.clear()
        deadline = self.next_deadline()
        if horizon is not None:
            deadline = horizon if deadline is None else min(deadline, horizon)
        if deadline is None:
            await self._wakeup.wait()
            return
        timeout = deadline - self._time()
        if timeout <= 0:
            # Already due; yield once so transports/subprocess futures can
            # make progress even under a saturated deadline stream.
            await asyncio.sleep(0)
            return
        try:
            await asyncio.wait_for(self._wakeup.wait(), timeout)
        except asyncio.TimeoutError:
            pass

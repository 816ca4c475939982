"""Simulated processes.

A :class:`SimProcess` is a named actor bound to a
:class:`~repro.simulation.engine.SimulationEngine`.  It provides scheduling
helpers, a lifecycle (started / stopped), and a small mailbox abstraction
used by the network transport to deliver messages.

Time servers, clients, and reference sources are all ``SimProcess``
subclasses.  The base class deliberately stays minimal: the paper's
algorithms are reactive (poll timers and reply handlers), so a callback
style fits better than coroutine-based processes.

The engine is addressed through the :class:`~repro.simulation.scheduler.
Scheduler` seam only (``now`` plus the ``schedule_*`` verbs), so the
same process — and everything layered on it, up to the hardened and
authenticated servers — runs unmodified on the discrete-event
:class:`~repro.simulation.engine.SimulationEngine` or on the live
wall-clock :class:`~repro.runtime.engine.WallClockEngine`.
"""

from __future__ import annotations

from typing import Any, Optional

from .engine import PeriodicTask
from .events import Event, EventCallback
from .scheduler import Scheduler


class SimProcess:
    """Base class for simulated actors.

    Attributes:
        name: Unique human-readable identifier (e.g. ``"S1"``).
        engine: The engine driving this process — anything satisfying
            the :class:`~repro.simulation.scheduler.Scheduler` seam.
    """

    def __init__(self, engine: Scheduler, name: str) -> None:
        self.engine = engine
        self.name = name
        self._started = False
        self._stopped = False
        self._periodic_tasks: list[PeriodicTask] = []

    # ------------------------------------------------------------- lifecycle

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has run."""
        return self._started

    @property
    def running(self) -> bool:
        """Whether the process is started and not stopped."""
        return self._started and not self._stopped

    def start(self) -> None:
        """Start the process; idempotent."""
        if self._started:
            return
        self._started = True
        self.on_start()

    def stop(self) -> None:
        """Stop the process and cancel its periodic tasks; idempotent."""
        if self._stopped:
            return
        self._stopped = True
        for task in self._periodic_tasks:
            task.cancel()
        self.on_stop()

    def on_start(self) -> None:
        """Hook: called once when the process starts."""

    def on_stop(self) -> None:
        """Hook: called once when the process stops."""

    # ------------------------------------------------------------ scheduling

    @property
    def now(self) -> float:
        """Current real time as seen by the engine."""
        return self.engine.now

    def call_after(self, delay: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` after ``delay`` seconds, tagged with our name."""
        return self.engine.schedule_after(
            delay, self._guard(callback), label=self.name
        )

    def call_at(self, time: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` at absolute time ``time``, tagged with our name."""
        return self.engine.schedule_at(time, self._guard(callback), label=self.name)

    def every(
        self,
        period: float,
        callback: EventCallback,
        *,
        first_at: Optional[float] = None,
        jitter=None,
    ) -> PeriodicTask:
        """Schedule a periodic callback owned by this process.

        The task is cancelled automatically when the process stops.
        """
        task = self.engine.schedule_periodic(
            period,
            self._guard(callback),
            first_at=first_at,
            label=self.name,
            jitter=jitter,
        )
        self._periodic_tasks.append(task)
        return task

    def _guard(self, callback: EventCallback) -> EventCallback:
        """Wrap a callback so it is a no-op once the process has stopped."""

        def guarded() -> Any:
            if self._stopped:
                return None
            return callback()

        return guarded

    # -------------------------------------------------------------- messages

    def deliver(self, message: Any, sender: "SimProcess") -> None:
        """Entry point used by the transport to hand a message to this process.

        Dispatches to :meth:`on_message` unless the process has stopped
        (a stopped server silently drops traffic, modelling a crashed or
        departed time server — the paper's "servers can frequently join or
        leave the service").
        """
        if self._started and not self._stopped:
            self.on_message(message, sender)

    def on_message(self, message: Any, sender: "SimProcess") -> None:
        """Hook: handle a delivered message.  Default drops it."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else ("stopped" if self._stopped else "new")
        return f"<{type(self).__name__} {self.name} {state}>"

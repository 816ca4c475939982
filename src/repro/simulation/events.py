"""Event primitives for the discrete-event simulation engine.

The simulator advances a single scalar *real time* axis ``t`` (seconds, as a
float).  Real time plays the role of the paper's *perfect clock*: a clock is
*correct* at ``t0`` when its reading equals ``t0`` (Marzullo & Owicki,
Section 2.1).  Every scheduled action is an :class:`Event` carrying the real
time at which it fires, a strictly increasing sequence number used to break
ties deterministically, and a zero-argument callback.

An :class:`Event` is only the handle a caller keeps (to cancel it, or to
read its time).  Ordering lives in the heap entry, not in the event: the
engine's heap holds ``(time, seq, event)`` tuples, so ``heapq`` compares
them in C and never reaches the event (``seq`` is unique).  Cancellation
is lazy: :meth:`Event.cancel` only sets a flag, the entry stays in the heap
and is dropped when it reaches the head, which keeps both operations
O(log n).
"""

from __future__ import annotations

from typing import Any, Callable


#: Type of event callbacks.  Callbacks take no arguments; any state they
#: need is bound at scheduling time (usually via functools.partial).
EventCallback = Callable[[], Any]


class Event:
    """A single scheduled occurrence in simulated real time.

    Attributes:
        time: Real time (seconds) at which the event fires.
        seq: Tie-breaking sequence number assigned by the engine; the heap
            entry ``(time, seq, event)`` fires in ``(time, seq)`` order,
            which makes every run exactly reproducible for a fixed seed.
        callback: Zero-argument callable invoked when the event fires.
        label: Optional human-readable tag used by traces and debugging.
        cancelled: Lazily-set cancellation flag; cancelled events are
            silently discarded when they reach the head of the queue.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled")

    def __init__(
        self, time: float, seq: int, callback: EventCallback, label: str = ""
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Mark this event so the engine skips it when popped."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        """Whether the event will still fire."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        tag = f" {self.label!r}" if self.label else ""
        return f"<Event t={self.time:.6f} seq={self.seq}{tag} {state}>"

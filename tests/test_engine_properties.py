"""Property tests: both event heaps fire exactly as a sorted reference does.

:class:`~repro.simulation.engine.SimulationEngine` and the live plane's
:class:`~repro.runtime.timeouts.TimeoutManager` (driven here by a fake
time source) keep ``(time, seq, event)`` heap entries with lazy
cancellation.  A random program of schedules, cancels, callbacks that
schedule at *now* / cancel / stop, ``run(until=)``, ``max_events`` and
``step()`` is replayed against both the real heap and a reference that
keeps a plain list and picks the smallest active ``(time, seq)`` by
scanning — fire order, ``events_processed``, ``pending_events`` and
``now`` must agree after every operation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.timeouts import TimeoutManager
from repro.simulation.engine import SchedulingError, SimulationEngine

#: What a scheduled callback does besides recording that it fired.
ACTIONS = ("none", "child", "stop", "cancel")
#: Few distinct offsets, so equal fire times (ties broken by seq) are common.
OFFSETS = st.sampled_from([-0.5, 0.0, 0.0, 0.25, 0.5, 1.0, 2.0])
HORIZONS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])

SCHEDULE = st.tuples(
    st.sampled_from(["at", "after"]), OFFSETS, st.sampled_from(ACTIONS), st.integers(0, 50)
)
OPS = st.one_of(
    SCHEDULE,
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("run_until"), HORIZONS),
    st.tuples(st.just("run_max"), st.integers(0, 4)),
    st.tuples(st.just("run_all")),
    st.tuples(st.just("step")),
    st.tuples(st.just("stop")),
)


class Reference:
    """The semantics, with no heap: a list scanned for the least (time, seq)."""

    def __init__(self, child_time=None) -> None:
        self.now = 0.0
        # [time, id, action, target, state]; the id is the schedule order,
        # i.e. the seq the heap breaks ties with.
        self.entries: list[list] = []
        self.fired: list[int] = []
        self.stopped = False
        # Where a callback's "child" lands: the engine's now, or the fake clock.
        self._child_time = child_time or (lambda: self.now)

    def schedule(self, time: float, action: str = "none", target: int = 0) -> None:
        self.entries.append([time, len(self.entries), action, target, "armed"])

    def cancel(self, ident: int) -> None:
        if self.entries[ident][4] == "armed":
            self.entries[ident][4] = "cancelled"

    def pending(self) -> int:
        return sum(1 for entry in self.entries if entry[4] == "armed")

    def head(self):
        armed = [entry for entry in self.entries if entry[4] == "armed"]
        return min(armed, key=lambda entry: (entry[0], entry[1])) if armed else None

    def fire(self, entry) -> None:
        time, ident, action, target, _state = entry
        entry[4] = "fired"
        self.now = time
        self.fired.append(ident)
        if action == "child":
            self.schedule(self._child_time())
        elif action == "stop":
            self.stopped = True
        elif action == "cancel":
            self.cancel(target % len(self.entries))

    def run(self, until=None, max_events=None) -> None:
        self.stopped = False
        count = 0
        while not self.stopped:
            if max_events is not None and count >= max_events:
                break
            entry = self.head()
            if entry is None or (until is not None and entry[0] > until):
                break
            self.fire(entry)
            count += 1
        if until is not None and self.now < until:
            entry = self.head()
            if entry is None or entry[0] > until:
                self.now = until


def _callback(fired, handles, schedule_child, stop, ident, action, target):
    def callback() -> None:
        fired.append(ident)
        if action == "child":
            handles.append(schedule_child(len(handles)))
        elif action == "stop":
            stop()
        elif action == "cancel":
            handles[target % len(handles)].cancel()

    return callback


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_simulation_engine_matches_sorted_reference(ops):
    engine = SimulationEngine()
    model = Reference()
    fired: list[int] = []
    handles: list = []

    def child(ident):
        return engine.schedule_at(engine.now, lambda: fired.append(ident))

    for op in ops:
        kind = op[0]
        if kind in ("at", "after"):
            _kind, offset, action, target = op
            callback = _callback(
                fired, handles, child, engine.stop, len(handles), action, target
            )
            if offset < 0:
                with pytest.raises(SchedulingError):
                    if kind == "at":
                        engine.schedule_at(engine.now + offset, callback)
                    else:
                        engine.schedule_after(offset, callback)
                continue
            if kind == "at":
                handles.append(engine.schedule_at(engine.now + offset, callback))
            else:
                handles.append(engine.schedule_after(offset, callback))
            model.schedule(model.now + offset, action, target)
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
                model.cancel(op[1] % len(handles))
        elif kind == "run_until":
            engine.run(until=engine.now + op[1])
            model.run(until=model.now + op[1])
        elif kind == "run_max":
            engine.run(max_events=op[1])
            model.run(max_events=op[1])
        elif kind == "run_all":
            engine.run()
            model.run()
        elif kind == "step":
            head = model.head()
            assert engine.step() == (head is not None)
            if head is not None:
                model.fire(head)
        else:  # a stop outside run: the next run clears it
            engine.stop()
        assert fired == model.fired
        assert engine.events_processed == len(model.fired)
        assert engine.pending_events == model.pending()
        assert engine.heap_depth >= engine.pending_events
        assert engine.now == model.now


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_timeout_manager_matches_sorted_reference(ops):
    clock = [0.0]
    manager = TimeoutManager(lambda: clock[0])
    model = Reference(child_time=lambda: clock[0])
    fired: list[int] = []
    handles: list = []

    def child(ident):
        return manager.schedule(clock[0], lambda: fired.append(ident))

    def no_stop() -> None:  # the manager has no run loop to stop
        pass

    for op in ops:
        kind = op[0]
        if kind in ("at", "after"):
            # A wall-clock heap accepts past deadlines: they are simply due.
            _kind, offset, action, target = op
            if action == "stop":
                action = "none"
            callback = _callback(
                fired, handles, child, no_stop, len(handles), action, target
            )
            handles.append(manager.schedule(clock[0] + offset, callback))
            model.schedule(clock[0] + offset, action, target)
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
                model.cancel(op[1] % len(handles))
        elif kind == "run_until":
            clock[0] += op[1]
            before = len(model.fired)
            model.run(until=clock[0])
            assert manager.fire_due() == len(model.fired) - before
        head = model.head()
        assert fired == model.fired
        assert manager.fired == len(model.fired)
        assert manager.pending == model.pending()
        assert manager.heap_depth >= manager.pending
        assert manager.next_deadline() == (None if head is None else head[0])


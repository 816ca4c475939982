"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.simulation.engine import SchedulingError, SimulationEngine


class TestEventOrdering:
    def test_events_fire_in_time_order(self, engine):
        fired = []
        engine.schedule_at(3.0, lambda: fired.append(3))
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(2.0, lambda: fired.append(2))
        engine.run()
        assert fired == [1, 2, 3]

    def test_ties_fire_in_scheduling_order(self, engine):
        fired = []
        for tag in range(5):
            engine.schedule_at(1.0, lambda tag=tag: fired.append(tag))
        engine.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_now_tracks_event_time(self, engine):
        seen = []
        engine.schedule_at(2.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.5]
        assert engine.now == 2.5

    def test_events_scheduled_during_run_are_honoured(self, engine):
        fired = []

        def first():
            fired.append("first")
            engine.schedule_after(1.0, lambda: fired.append("second"))

        engine.schedule_at(1.0, first)
        engine.run()
        assert fired == ["first", "second"]
        assert engine.now == 2.0


class TestScheduling:
    def test_past_scheduling_rejected(self, engine):
        engine.schedule_at(5.0, lambda: None)
        engine.run()
        with pytest.raises(SchedulingError):
            engine.schedule_at(4.0, lambda: None)

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SchedulingError):
            engine.schedule_after(-1.0, lambda: None)

    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        event = engine.schedule_at(1.0, lambda: fired.append(1))
        event.cancel()
        engine.run()
        assert fired == []
        assert engine.events_processed == 0

    def test_pending_events_excludes_cancelled(self, engine):
        keep = engine.schedule_at(1.0, lambda: None)
        drop = engine.schedule_at(2.0, lambda: None)
        drop.cancel()
        assert engine.pending_events == 1
        assert keep.active and not drop.active


class TestRunControl:
    def test_run_until_stops_at_horizon(self, engine):
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0  # advanced to the horizon

    def test_run_until_resumable(self, engine):
        fired = []
        engine.schedule_at(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        engine.run(until=20.0)
        assert fired == [10]

    def test_max_events_budget(self, engine):
        fired = []
        for k in range(10):
            engine.schedule_at(float(k), lambda k=k: fired.append(k))
        engine.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_stop_exits_early(self, engine):
        fired = []
        engine.schedule_at(1.0, lambda: (fired.append(1), engine.stop()))
        engine.schedule_at(2.0, lambda: fired.append(2))
        engine.run()
        assert fired == [1]

    def test_advance_to_backwards_rejected(self, engine):
        engine.advance_to(5.0)
        with pytest.raises(SchedulingError):
            engine.advance_to(4.0)

    def test_step_returns_false_when_empty(self, engine):
        assert engine.step() is False

    def test_sample_grid_yields_each_point(self, engine):
        points = list(engine.sample_grid(0.0, 1.0, 0.25))
        assert points == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


class TestPeriodicTask:
    def test_fires_every_period(self, engine):
        fired = []
        engine.schedule_periodic(1.0, lambda: fired.append(engine.now))
        engine.run(until=3.5)
        assert fired == pytest.approx([1.0, 2.0, 3.0])

    def test_first_at_override(self, engine):
        fired = []
        engine.schedule_periodic(
            2.0, lambda: fired.append(engine.now), first_at=0.5
        )
        engine.run(until=5.0)
        assert fired == pytest.approx([0.5, 2.5, 4.5])

    def test_cancel_stops_future_firings(self, engine):
        fired = []
        task = engine.schedule_periodic(1.0, lambda: fired.append(engine.now))
        engine.run(until=2.5)
        task.cancel()
        engine.run(until=10.0)
        assert fired == pytest.approx([1.0, 2.0])
        assert task.cancelled

    def test_cancel_from_within_callback(self, engine):
        fired = []
        task = engine.schedule_periodic(
            1.0, lambda: (fired.append(engine.now), task.cancel())
        )
        engine.run(until=10.0)
        assert fired == pytest.approx([1.0])

    def test_jitter_applies_to_gap(self, engine):
        fired = []
        engine.schedule_periodic(
            1.0, lambda: fired.append(engine.now), jitter=lambda: 0.5
        )
        engine.run(until=4.0)
        # First firing at period (no jitter on the initial arm), then +1.5.
        assert fired == pytest.approx([1.0, 2.5, 4.0])

    def test_zero_period_rejected(self, engine):
        with pytest.raises(SchedulingError):
            engine.schedule_periodic(0.0, lambda: None)

    def test_firings_counted(self, engine):
        task = engine.schedule_periodic(1.0, lambda: None)
        engine.run(until=5.0)
        assert task.firings == 5



class TestEventSequencer:
    """Tie-breaking sequence numbers: one counter per engine, carried by the
    ``(time, seq, event)`` heap entry rather than by the event itself."""

    def test_strictly_increasing(self, engine):
        first = [engine.schedule_at(1.0, lambda: None) for _ in range(3)]
        engine.run()
        later = [engine.schedule_after(0.5, lambda: None) for _ in range(2)]
        assert [event.seq for event in first + later] == [0, 1, 2, 3, 4]

    def test_event_ordering_dataclass(self, engine):
        early = engine.schedule_at(1.0, lambda: None)
        late = engine.schedule_at(1.0, lambda: None)
        assert (early.time, early.seq, early) < (late.time, late.seq, late)
        # The event is only a handle: ordering it directly is an error.
        with pytest.raises(TypeError):
            early < late

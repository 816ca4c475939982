"""Tests for the DisciplinedClock and the DisciplineStage loop."""

from __future__ import annotations

import pytest

from repro.clocks.disciplined import DisciplinedClock
from repro.clocks.drift import DriftingClock
from repro.core.im import IMPolicy
from repro.network.delay import ConstantDelay
from repro.network.topology import full_mesh
from repro.service.builder import ServerSpec, build_service
from repro.service.discipline import DisciplineStage
from repro.service.rate_tracking import RateTrackingStage
from repro.service.server import TimeServer
from repro.experiments import discipline as discipline_experiment


class TestDisciplinedClock:
    def test_passthrough_by_default(self):
        clock = DisciplinedClock(DriftingClock(skew=1e-4))
        assert clock.read(1000.0) == pytest.approx(1000.0 * (1 + 1e-4))
        assert clock.correction == 0.0

    def test_rate_correction_cancels_skew(self):
        raw_skew = 1e-4
        clock = DisciplinedClock(DriftingClock(skew=raw_skew))
        clock.read(100.0)
        # Exact cancellation: (1 + s)(1 + c) = 1.
        correction = -raw_skew / (1.0 + raw_skew)
        clock.adjust_rate(100.0, correction)
        v1 = clock.read(100.0)
        v2 = clock.read(1100.0)
        assert v2 - v1 == pytest.approx(1000.0, abs=1e-9)
        assert clock.effective_skew(raw_skew) == pytest.approx(0.0, abs=1e-15)

    def test_adjustment_is_continuous(self):
        """Retuning the rate never steps the value."""
        clock = DisciplinedClock(DriftingClock(skew=5e-5))
        before = clock.read(500.0)
        clock.adjust_rate(500.0, -5e-5)
        assert clock.read(500.0) == pytest.approx(before, abs=1e-12)

    def test_set_reanchors_value_not_raw(self):
        raw = DriftingClock(skew=0.0)
        clock = DisciplinedClock(raw)
        clock.read(10.0)
        clock.set(10.0, 100.0)
        assert clock.read(20.0) == pytest.approx(110.0)

    def test_correction_clamped(self):
        clock = DisciplinedClock(DriftingClock(skew=0.0), max_correction=1e-3)
        applied = clock.adjust_rate(0.0, 5.0)
        assert applied == pytest.approx(1e-3)
        assert clock.correction == pytest.approx(1e-3)

    def test_adjustments_counter(self):
        clock = DisciplinedClock(DriftingClock(skew=0.0))
        clock.adjust_rate(0.0, 1e-5)
        clock.adjust_rate(1.0, 1e-5)  # unchanged -> not counted
        clock.adjust_rate(2.0, 2e-5)
        assert clock.adjustments == 2

    def test_invalid_max_correction(self):
        with pytest.raises(ValueError):
            DisciplinedClock(DriftingClock(skew=0.0), max_correction=0.0)


class TestDiscipliningServer:
    def _build(self, skew=8e-5, delta=1e-4, tau=20.0, gain=0.5):
        specs = [
            ServerSpec("S1", delta=delta, skew=skew, discipline=True),
            ServerSpec("REF", reference=True, initial_error=0.0005),
        ]
        graph = full_mesh(1)
        graph.add_node("REF")
        graph.add_edge("S1", "REF")
        return build_service(
            graph,
            specs,
            policy=IMPolicy(),
            tau=tau,
            seed=0,
            lan_delay=ConstantDelay(0.002),
        )

    def test_requires_disciplined_clock(self):
        service = self._build()
        server = service.servers["S1"]
        assert server.stage(DisciplineStage) is not None
        assert isinstance(server.clock, DisciplinedClock)

    def test_converges_toward_zero_skew(self):
        raw_skew = 8e-5
        service = self._build(skew=raw_skew)
        service.run_until(4.0 * 3600.0)
        server = service.servers["S1"]
        assert server.stage(DisciplineStage).discipline_steps > 0
        residual = server.clock.effective_skew(raw_skew)
        assert abs(residual) < raw_skew / 4.0

    def test_stays_correct_while_disciplining(self):
        service = self._build()
        for t in range(600, 4 * 3600, 600):
            service.run_until(float(t))
            snap = service.snapshot()
            assert snap.correct["S1"]

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            DisciplineStage(gain=0.0)

    def test_plain_clock_rejected(self):
        with pytest.raises(TypeError):
            TimeServer(
                None, "X", DriftingClock(0.0), 1e-5, None,
                stages=[RateTrackingStage(), DisciplineStage()],
            )


class TestDisciplineExperiment:
    def test_three_arm_comparison(self):
        result = discipline_experiment.run(horizon=2.0 * 3600.0)
        # Measurement alone changes nothing.
        assert result.tracking.worst_true_offset == pytest.approx(
            result.plain.worst_true_offset, rel=1e-6
        )
        # Discipline improves the truth...
        assert result.offset_improvement > 2.0
        assert (
            result.disciplined.mean_asynchronism
            < result.plain.mean_asynchronism
        )
        # ...but not the claimed bound (rule MM-1 uses the claimed δ).
        assert result.disciplined.mean_claimed_error == pytest.approx(
            result.plain.mean_claimed_error, rel=0.1
        )

    def test_residual_skews_shrink(self):
        result = discipline_experiment.run(horizon=2.0 * 3600.0)
        raw_worst = 0.9e-4
        for residual in result.disciplined.residual_skews.values():
            assert abs(residual) < raw_worst / 2.0

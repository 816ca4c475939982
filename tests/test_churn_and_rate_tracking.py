"""Tests for server churn and the Section 5 rate-tracking machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.im import IMPolicy
from repro.core.mm import MMPolicy
from repro.core.recovery import ThirdServerRecovery
from repro.network.delay import ConstantDelay, UniformDelay
from repro.network.topology import full_mesh
from repro.service.builder import ServerSpec, build_service
from repro.service.churn import ChurnController
from repro.service.rate_tracking import RateTrackingStage

from tests.helpers import make_mesh_service


class TestLeaveRejoin:
    def test_departed_server_does_not_answer(self):
        service = make_mesh_service(3, MMPolicy())
        service.run_until(50.0)
        victim = service.servers["S2"]
        answered_before = victim.stats.requests_answered
        victim.leave()
        service.run_until(200.0)
        assert victim.stats.requests_answered == answered_before
        assert victim.departed

    def test_departed_server_stops_polling(self):
        service = make_mesh_service(3, MMPolicy())
        service.run_until(50.0)
        victim = service.servers["S2"]
        victim.leave()
        rounds_at_leave = victim.stats.rounds
        service.run_until(400.0)
        assert victim.stats.rounds == rounds_at_leave

    def test_rejoin_restores_service(self):
        service = make_mesh_service(3, IMPolicy(), tau=20.0)
        service.run_until(50.0)
        victim = service.servers["S2"]
        victim.leave()
        service.run_until(100.0)
        victim.rejoin(initial_error=5.0)
        assert not victim.departed
        _value, error = victim.report()
        assert error == pytest.approx(5.0, abs=0.1)
        # Within a few rounds the rejoined server is pulled back in.
        service.run_until(200.0)
        _value, error = victim.report()
        assert error < 0.5
        assert victim.is_correct()

    def test_leave_rejoin_idempotence(self):
        service = make_mesh_service(3, MMPolicy())
        service.run_until(10.0)
        victim = service.servers["S1"]
        victim.leave()
        victim.leave()
        victim.rejoin(1.0)
        victim.rejoin(1.0)
        assert not victim.departed

    def test_rejoin_negative_error_rejected(self):
        service = make_mesh_service(3, MMPolicy())
        victim = service.servers["S1"]
        victim.leave()
        with pytest.raises(ValueError):
            victim.rejoin(-1.0)


class TestChurnController:
    def _service_with_churn(self, **kwargs):
        service = make_mesh_service(5, IMPolicy(), tau=20.0, trace_enabled=True)
        controller = ChurnController(
            service.engine,
            list(service.servers.values()),
            np.random.default_rng(0),
            interval=kwargs.pop("interval", 50.0),
            mean_downtime=kwargs.pop("mean_downtime", 30.0),
            rejoin_error=1.0,
            min_alive=kwargs.pop("min_alive", 2),
        )
        controller.start()
        return service, controller

    def test_churn_produces_departures_and_rejoins(self):
        service, controller = self._service_with_churn()
        service.run_until(2000.0)
        assert controller.stats.departures > 5
        assert controller.stats.rejoins > 5

    def test_min_alive_respected(self):
        service, controller = self._service_with_churn(
            interval=5.0, mean_downtime=500.0, min_alive=3
        )
        checked = 0
        for t in range(50, 2000, 50):
            service.run_until(float(t))
            present = sum(
                1 for s in service.servers.values() if not s.departed
            )
            assert present >= 3
            checked += 1
        assert checked > 0
        assert controller.stats.skipped > 0

    def test_present_servers_stay_correct_under_churn(self):
        service, controller = self._service_with_churn()
        for t in range(100, 3000, 100):
            service.run_until(float(t))
            snap = service.snapshot()
            for name, server in service.servers.items():
                if not server.departed:
                    assert snap.correct[name]

    def test_invalid_parameters(self):
        service = make_mesh_service(3, IMPolicy())
        with pytest.raises(ValueError):
            ChurnController(
                service.engine, [], np.random.default_rng(0), interval=0.0
            )
        with pytest.raises(ValueError):
            ChurnController(
                service.engine,
                [],
                np.random.default_rng(0),
                rejoin_error=-1.0,
            )


def build_rate_tracking_pair(bad_skew=5e-3, tau=20.0, delta=1e-5):
    """S1 (tracking, good) polling S2 (good) and S3 (racing)."""
    specs = [
        ServerSpec("S1", delta=delta, skew=0.0, rate_tracking=True),
        ServerSpec("S2", delta=delta, skew=2e-6, polls=False),
        ServerSpec("S3", delta=delta, skew=bad_skew, polls=False),
    ]
    return build_service(
        full_mesh(3),
        specs,
        policy=MMPolicy(),
        tau=tau,
        seed=0,
        lan_delay=ConstantDelay(0.005),
    )


class TestRateTracking:
    def test_raw_clock_unaffected_by_resets(self):
        service = make_mesh_service(2, IMPolicy(), tau=10.0)
        # Rebuild with rate tracking on.
        specs = [
            ServerSpec("S1", delta=1e-4, skew=5e-5, rate_tracking=True),
            ServerSpec("S2", delta=0.0, skew=0.0, polls=False),
        ]
        service = build_service(
            full_mesh(2),
            specs,
            policy=IMPolicy(),
            tau=10.0,
            seed=0,
            lan_delay=ConstantDelay(0.005),
        )
        service.run_until(500.0)
        server = service.servers["S1"]
        rates = server.stage(RateTrackingStage)
        assert rates is not None
        assert server.stats.resets > 5
        # Raw time advances at the oscillator rate: 500 s * (1 + 5e-5).
        assert rates.raw_clock_value == pytest.approx(
            500.0 * (1 + 5e-5), abs=0.01
        )

    def test_detects_racing_neighbour(self):
        service = build_rate_tracking_pair()
        service.run_until(600.0)
        server = service.servers["S1"]
        assert server.dissonant_neighbours() == ["S3"]
        report = server.rate_report("S3")
        assert report.consonant is False
        assert report.estimate is not None
        assert report.estimate.rate == pytest.approx(5e-3, rel=0.2)

    def test_healthy_neighbour_is_consonant(self):
        service = build_rate_tracking_pair()
        service.run_until(600.0)
        report = service.servers["S1"].rate_report("S2")
        assert report.consonant is True
        assert report.remote_delta == pytest.approx(1e-5)

    def test_unknown_neighbour_verdict_none(self):
        service = build_rate_tracking_pair()
        report = service.servers["S1"].rate_report("S2")
        assert report.consonant is None
        assert report.estimate is None

    def test_rate_reports_cover_all_heard(self):
        service = build_rate_tracking_pair()
        service.run_until(600.0)
        reports = service.servers["S1"].rate_reports()
        assert set(reports) == {"S2", "S3"}

    def test_dissonant_neighbour_excluded_from_recovery(self):
        """The Section 5 fix: the tracker widens the recovery exclusion
        set, so the arbiter is never a provably-bad clock."""
        specs = [
            ServerSpec("S1", delta=1e-5, skew=0.0, rate_tracking=True),
            # Two racing neighbours, alphabetically before the good one —
            # without rate tracking, pool[0] would pick a bad arbiter.
            ServerSpec("B1", delta=1e-5, skew=5e-3, polls=False),
            ServerSpec("B2", delta=1e-5, skew=-4e-3, polls=False),
            ServerSpec("G1", delta=1e-5, skew=1e-6, polls=False),
        ]
        import networkx as nx

        graph = nx.Graph()
        graph.add_edges_from(
            [("S1", "B1"), ("S1", "B2"), ("S1", "G1")]
        )
        service = build_service(
            graph,
            specs,
            policy=MMPolicy(),
            tau=30.0,
            seed=0,
            lan_delay=UniformDelay(0.01),
            recovery_factory=lambda name: ThirdServerRecovery(),
            trace_enabled=True,
        )
        service.run_until(3600.0)
        recoveries = service.trace.filter(
            kind="reset",
            source="S1",
            predicate=lambda row: row.data.get("reset_kind") == "recovery",
        )
        assert recoveries, "scenario should trigger recoveries"
        # Once the rate window fills (a few rounds), arbiters are good.
        poisoned_late = [
            row
            for row in recoveries
            if row.time > 300.0
            and row.data["from_server"].removeprefix("recovery:") in ("B1", "B2")
        ]
        assert poisoned_late == []
        assert service.servers["S1"].is_correct()

"""Unit tests for the hardened server (validation, retries, adaptive
timeouts, quarantine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clocks.drift import DriftingClock
from repro.core.mm import MMPolicy
from repro.network.delay import ConstantDelay
from repro.network.topology import full_mesh
from repro.network.transport import Network
from repro.service.builder import ServerSpec, build_service, stages_for
from repro.service.hardening import (
    HardeningConfig,
    HardeningStage,
    NeighbourHealth,
    PeerHealth,
    QuarantinePolicy,
    RetryPolicy,
)
from repro.service.messages import RequestKind, TimeReply
from repro.service.server import TimeServer
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngRegistry

from tests.helpers import make_mesh_service


def lone_hardened(initial_error=0.1, config=None, n=3):
    engine = SimulationEngine()
    rng = RngRegistry(seed=0)
    network = Network(engine, full_mesh(n), rng, lan_delay=ConstantDelay(0.01))
    server = TimeServer(
        engine,
        "S1",
        DriftingClock(0.0),
        1e-4,
        network,
        policy=None,
        initial_error=initial_error,
        stages=stages_for(
            ServerSpec("S1"),
            None,
            True,
            rng,
            hardening=config if config is not None else HardeningConfig(),
        ),
    )
    network.register(server)
    server.start()
    return engine, network, server


def reply(clock_value, error, server="S2"):
    return TimeReply(
        request_id=1,
        server=server,
        destination="S1",
        clock_value=clock_value,
        error=error,
        kind=RequestKind.POLL,
        delta=1e-5,
    )


class TestValidation:
    def test_sane_reply_accepted(self):
        engine, network, server = lone_hardened()
        assert server._validate_reply(reply(0.01, 0.05)) is None

    def test_nan_value_rejected(self):
        engine, network, server = lone_hardened()
        assert "non-finite" in server._validate_reply(reply(float("nan"), 0.05))

    def test_infinite_error_rejected(self):
        engine, network, server = lone_hardened()
        assert "non-finite" in server._validate_reply(reply(0.0, float("inf")))

    def test_negative_error_rejected(self):
        engine, network, server = lone_hardened()
        assert "negative" in server._validate_reply(reply(0.0, -0.1))

    def test_absurd_error_rejected(self):
        engine, network, server = lone_hardened()
        assert "large" in server._validate_reply(reply(0.0, 1e6))

    def test_implausible_value_rejected(self):
        # Farther off than E_i + E_j + (1+δ)ξ + slack can explain.
        engine, network, server = lone_hardened(initial_error=0.1)
        assert "implausible" in server._validate_reply(reply(50.0, 0.05))

    def test_invalid_replies_decay_health_to_quarantine(self):
        engine, network, server = lone_hardened()
        for _ in range(4):
            assert server._validate_reply(reply(float("nan"), 0.05)) is not None
        health = server.health["S2"]
        assert health.invalid == 4
        assert health.is_quarantined(engine.now)
        assert server.hardening_stats.quarantines == 1


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base=0.1, factor=2.0, cap=0.3, jitter=0.0)
        delays = [policy.delay(k, None) for k in (1, 2, 3, 4)]
        assert delays == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.3),
            pytest.approx(0.3),
        ]

    def test_jitter_bounded(self):
        policy = RetryPolicy(base=1.0, factor=1.0, cap=5.0, jitter=0.25)
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert 0.75 <= policy.delay(1, rng) <= 1.25


class TestNeighbourHealth:
    def test_good_replies_pull_score_up(self):
        policy = QuarantinePolicy()
        health = NeighbourHealth(score=0.5)
        health.record_good(policy)
        assert health.score > 0.5

    def test_release_puts_on_probation(self):
        policy = QuarantinePolicy(probation_score=0.5)
        health = NeighbourHealth(score=0.1, quarantined_until=10.0)
        health.release_if_due(5.0, policy)
        assert health.is_quarantined(5.0)
        health.release_if_due(10.0, policy)
        assert not health.is_quarantined(10.0)
        assert health.score == pytest.approx(0.5)


class TestQuarantineTargeting:
    def test_quarantined_neighbour_not_polled(self):
        engine, network, server = lone_hardened(n=4)
        server.stage(PeerHealth).of("S2").quarantined_until = engine.now + 100.0
        assert server._poll_targets() == ["S3", "S4"]
        assert server.quarantined_peers() == ["S2"]

    def test_starvation_guard_readmits_best(self):
        engine, network, server = lone_hardened(n=4)
        for name, score in (("S2", 0.2), ("S3", 0.1), ("S4", 0.05)):
            record = server.stage(PeerHealth).of(name)
            record.quarantined_until = engine.now + 100.0
            record.score = score
        targets = server._poll_targets()
        # min_peers=2: the two best-scored benched peers are re-admitted.
        assert targets == ["S2", "S3"]
        assert server.hardening_stats.starvation_overrides == 2

    def test_quarantine_disabled_polls_everyone(self):
        config = HardeningConfig(quarantine=None)
        engine, network, server = lone_hardened(n=4, config=config)
        server.health["S2"] = NeighbourHealth(quarantined_until=1e9)
        assert server._poll_targets() == ["S2", "S3", "S4"]


class TestAdaptiveTimeout:
    def test_defaults_to_static_plus_retry_budget_before_samples(self):
        engine, network, server = lone_hardened()
        server._round_timeout = 2.0
        budget = server.stage(HardeningStage)._retry_budget()
        assert budget == pytest.approx(0.45)  # 0.15 + 0.30, default policy
        assert server._effective_round_timeout() == pytest.approx(2.0 + budget)

    def test_shrinks_with_observed_rtts(self):
        engine, network, server = lone_hardened()
        server._round_timeout = 5.0
        for _ in range(20):
            server._observe_reply(reply(0.0, 0.05), 0.02, 0.0)
        timeout = server._effective_round_timeout()
        assert timeout < 5.0
        assert timeout >= server.hardening.min_timeout

    def test_window_never_exceeds_static(self):
        engine, network, server = lone_hardened()
        server._round_timeout = 0.2
        server._observe_reply(reply(0.0, 0.05), 10.0, 0.0)
        expected = 0.2 + server.stage(HardeningStage)._retry_budget()
        assert server._effective_round_timeout() == pytest.approx(expected)

    def test_retry_budget_keeps_round_open_on_fast_networks(self):
        # static = 4ξ can be shorter than the first backoff delay; the
        # budget must extend the round or retries would never fire.
        engine, network, server = lone_hardened()
        server._round_timeout = 0.08
        first_retry = server.hardening.retry.delay(1, None)
        assert server._effective_round_timeout() > first_retry


class TestRetriesEndToEnd:
    def test_retries_recover_lost_polls(self):
        plain = make_mesh_service(4, tau=10.0, seed=5, loss_probability=0.35)
        hard = make_mesh_service(
            4, tau=10.0, seed=5, loss_probability=0.35,
            hardening=HardeningConfig(),
        )
        plain.run_until(300.0)
        hard.run_until(300.0)
        plain_replies = sum(
            s.stats.replies_handled for s in plain.servers.values()
        )
        hard_replies = sum(
            s.stats.replies_handled for s in hard.servers.values()
        )
        retries = sum(
            s.hardening_stats.retries_sent for s in hard.servers.values()
        )
        assert retries > 0
        assert hard_replies > plain_replies

    def test_no_retries_on_lossless_network(self):
        config = HardeningConfig(retry=RetryPolicy(max_attempts=1))
        service = make_mesh_service(3, tau=10.0, hardening=config)
        service.run_until(100.0)
        assert all(
            s.hardening_stats.retries_sent == 0
            for s in service.servers.values()
        )


class TestBuilderIntegration:
    def test_hardening_flag_builds_hardened_servers(self):
        service = make_mesh_service(3, hardening=HardeningConfig())
        assert all(
            s.stage(HardeningStage) is not None for s in service.servers.values()
        )

    def test_default_build_is_plain(self):
        service = make_mesh_service(3)
        assert all(
            type(s) is TimeServer and not s.stages
            for s in service.servers.values()
        )

    def test_reference_servers_not_hardened(self):
        graph = full_mesh(3)
        specs = [
            ServerSpec("S1", reference=True, initial_error=0.01),
            ServerSpec("S2", delta=1e-5),
            ServerSpec("S3", delta=1e-5),
        ]
        service = build_service(
            graph, specs, policy=MMPolicy(), hardening=HardeningConfig()
        )
        assert service.servers["S1"].stage(HardeningStage) is None
        assert service.servers["S2"].stage(HardeningStage) is not None


class TestHealthFeedback:
    def test_round_timeout_penalises_silent_neighbour(self):
        # S2's links are cut after build: every round times out on it.
        service = make_mesh_service(
            3, tau=5.0, hardening=HardeningConfig()
        )
        service.network.link("S1", "S2").take_down()
        service.network.link("S2", "S3").take_down()
        service.run_until(200.0)
        s1 = service.servers["S1"]
        assert s1.health["S2"].timeouts > 0
        assert s1.health["S2"].score < 1.0

    def test_good_replies_keep_score_high(self):
        service = make_mesh_service(3, tau=5.0, hardening=HardeningConfig())
        service.run_until(100.0)
        for server in service.servers.values():
            for record in server.health.values():
                assert record.score > 0.9
                assert not record.is_quarantined(service.engine.now)

"""Unit tests for the TimeServer process (rules MM-1/IM-1 and the round
machinery)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.clocks.drift import DriftingClock
from repro.clocks.failures import StuckOnResetClock
from repro.core.im import IMPolicy
from repro.core.mm import MMPolicy
from repro.core.recovery import ThirdServerRecovery
from repro.network.delay import ConstantDelay, UniformDelay
from repro.network.topology import full_mesh
from repro.network.transport import Network
from repro.service.builder import ServerSpec, build_service
from repro.service.messages import RequestKind, TimeReply, TimeRequest
from repro.service.server import TimeServer
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngRegistry

from tests.helpers import make_mesh_service


def lone_server(delta=1e-4, skew=0.0, initial_error=0.5, epsilon_clock=None):
    """A single answer-only server on a 2-node graph (for MM-1 tests)."""
    engine = SimulationEngine()
    graph = full_mesh(2)
    network = Network(
        engine, graph, RngRegistry(seed=0), lan_delay=ConstantDelay(0.01)
    )
    clock = epsilon_clock or DriftingClock(skew)
    server = TimeServer(
        engine,
        "S1",
        clock,
        delta,
        network,
        policy=None,
        initial_error=initial_error,
    )
    network.register(server)
    server.start()
    return engine, network, server


class TestRuleMM1:
    def test_initial_report(self):
        engine, network, server = lone_server(initial_error=0.5)
        value, error = server.report()
        assert value == pytest.approx(0.0)
        assert error == pytest.approx(0.5)

    def test_error_grows_with_clock_age(self):
        """E_i(t) = ε_i + (C_i(t) - r_i)·δ_i."""
        engine, network, server = lone_server(delta=1e-3, initial_error=0.5)
        engine.advance_to(100.0)
        value, error = server.report()
        assert error == pytest.approx(0.5 + 100.0 * 1e-3, rel=1e-6)

    def test_error_growth_uses_local_clock_age(self):
        """A fast clock's error grows slightly faster in real time."""
        engine, network, server = lone_server(
            delta=1e-3, skew=0.5, initial_error=0.0
        )
        engine.advance_to(100.0)
        _value, error = server.report()
        assert error == pytest.approx(150.0 * 1e-3, rel=1e-6)

    def test_is_correct_oracle(self):
        engine, network, server = lone_server(
            delta=1e-3, skew=5e-4, initial_error=0.0
        )
        engine.advance_to(100.0)
        assert server.is_correct()  # |offset| = 0.05 <= E = ~0.1

    def test_answers_requests_with_report(self):
        engine, network, server = lone_server(initial_error=0.25)
        replies = []

        class Probe(TimeServer):
            def on_message(self, message, sender):
                replies.append(message)

        probe = Probe(
            engine, "S2", DriftingClock(0.0), 0.0, network, policy=None
        )
        network.register(probe)
        probe.start()
        network.send(
            "S2",
            "S1",
            TimeRequest(request_id=7, origin="S2", destination="S1"),
        )
        engine.run()
        assert len(replies) == 1
        assert replies[0].request_id == 7
        assert replies[0].server == "S1"
        assert replies[0].error >= 0.25


class TestPollingRounds:
    def test_mm_resets_toward_better_neighbour(self):
        """A server with a large error adopts a reference-grade neighbour."""
        graph = full_mesh(2)
        specs = [
            ServerSpec("S1", delta=1e-4, skew=5e-5, initial_error=5.0),
            ServerSpec("S2", delta=0.0, skew=0.0, initial_error=0.0, polls=False),
        ]
        service = build_service(
            graph,
            specs,
            policy=MMPolicy(),
            tau=10.0,
            seed=0,
            lan_delay=ConstantDelay(0.01),
        )
        service.run_until(60.0)
        server = service.servers["S1"]
        assert server.stats.resets >= 1
        _value, error = server.report()
        assert error < 1.0  # slashed from 5.0 toward the neighbour's 0

    def test_mm_never_adopts_worse(self):
        graph = full_mesh(2)
        specs = [
            ServerSpec("S1", delta=1e-6, skew=0.0, initial_error=0.0),
            ServerSpec("S2", delta=1e-6, skew=0.0, initial_error=9.0, polls=False),
        ]
        service = build_service(
            graph, specs, policy=MMPolicy(), tau=10.0, seed=0,
            lan_delay=ConstantDelay(0.01),
        )
        service.run_until(100.0)
        assert service.servers["S1"].stats.resets == 0

    def test_im_resets_every_round(self, im_service):
        im_service.run_until(200.0)
        for server in im_service.servers.values():
            assert server.stats.resets == server.stats.rounds

    def test_round_counts(self, mm_service):
        mm_service.run_until(100.0)
        server = mm_service.servers["S1"]
        # Staggered first poll at τ/4 = 7.5, then every τ = 30 s.
        assert server.stats.rounds == 4

    def test_stopped_server_ignores_requests(self):
        engine, network, server = lone_server()
        server.stop()
        before = server.stats.requests_answered
        server.deliver(
            TimeRequest(request_id=1, origin="S2", destination="S1"), None
        )
        assert server.stats.requests_answered == before

    def test_late_replies_dropped(self):
        """Replies arriving after their round closed are ignored."""
        service = make_mesh_service(3, MMPolicy(), one_way=0.01, tau=30.0)
        service.run_until(300.0)
        # No crash and sane accounting: handled <= rounds * (n-1).
        for server in service.servers.values():
            assert server.stats.replies_handled <= server.stats.rounds * 2

    def test_validation_errors(self):
        engine = SimulationEngine()
        graph = full_mesh(2)
        network = Network(
            engine, graph, RngRegistry(0), lan_delay=ConstantDelay(0.01)
        )
        with pytest.raises(ValueError):
            TimeServer(
                engine, "S1", DriftingClock(0.0), -1.0, network
            )
        with pytest.raises(ValueError):
            TimeServer(
                engine,
                "S1",
                DriftingClock(0.0),
                1e-5,
                network,
                policy=MMPolicy(),
                tau=0.0,
            )
        with pytest.raises(ValueError):
            TimeServer(
                engine,
                "S1",
                DriftingClock(0.0),
                1e-5,
                network,
                initial_error=-1.0,
            )


class TestResetBookkeeping:
    def test_reset_reads_back_clock(self):
        """r_i comes from the clock, so a stuck clock corrupts the error —
        the paper's 'refusing to change its value when reset' hazard."""
        graph = full_mesh(2)
        stuck_clock = StuckOnResetClock(DriftingClock(skew=0.01), fail_at=0.0)
        specs = [
            ServerSpec(
                "S1",
                delta=1e-4,
                clock_factory=lambda rng, name: stuck_clock,
                initial_error=5.0,
            ),
            ServerSpec("S2", delta=0.0, skew=0.0, polls=False),
        ]
        service = build_service(
            graph, specs, policy=MMPolicy(), tau=10.0, seed=0,
            lan_delay=ConstantDelay(0.01),
        )
        service.run_until(50.0)
        server = service.servers["S1"]
        if server.stats.resets:
            # The server *believes* it adopted S2's small error, but the
            # clock kept racing: the oracle sees an incorrect server.
            assert not server.is_correct()

    def test_recovery_unconditional_adoption(self):
        """On inconsistency, the server adopts the arbiter regardless of
        error size (Section 3's rule)."""
        graph = full_mesh(3)
        specs = [
            # S1 races far beyond its claimed bound.
            ServerSpec("S1", delta=1e-6, skew=0.01),
            ServerSpec("S2", delta=1e-6, skew=0.0, polls=False),
            ServerSpec("S3", delta=1e-6, skew=0.0, polls=False, initial_error=2.0),
        ]
        service = build_service(
            graph,
            specs,
            policy=MMPolicy(),
            tau=20.0,
            seed=0,
            lan_delay=ConstantDelay(0.01),
            recovery_factory=lambda name: ThirdServerRecovery(),
            trace_enabled=True,
        )
        service.run_until(600.0)
        server = service.servers["S1"]
        assert server.stats.inconsistencies > 0
        assert server.stats.recovery_resets > 0
        # After recovery the racing server is near the truth again at the
        # recovery instants (it keeps racing in between).
        recoveries = service.trace.filter(
            kind="reset",
            source="S1",
            predicate=lambda row: row.data.get("reset_kind") == "recovery",
        )
        assert recoveries
        for row in recoveries:
            assert abs(row.data["new_value"] - row.time) < 1.0


class TestReplyHygiene:
    """Duplicate, stale, and undeliverable-poll handling."""

    @staticmethod
    def _poll_reply(server, origin="S2"):
        return TimeReply(
            request_id=server._round.round_id,
            server=origin,
            destination=server.name,
            clock_value=1.0,
            error=0.05,
            kind=RequestKind.POLL,
            delta=1e-5,
            nonce=server._round.nonces.get(origin, 0),
        )

    def test_duplicate_reply_counted_once(self):
        service = make_mesh_service(2, tau=1000.0)
        s1 = service.servers["S1"]
        service.run_until(1.0)
        s1._start_round()
        good = self._poll_reply(s1)
        s1._handle_reply(good)
        assert s1.stats.replies_handled == 1
        s1._handle_reply(good)  # retransmission of the same reply
        assert s1.stats.replies_handled == 1

    def test_stale_request_id_ignored(self):
        service = make_mesh_service(2, tau=1000.0)
        s1 = service.servers["S1"]
        service.run_until(1.0)
        s1._start_round()
        good = self._poll_reply(s1)
        from dataclasses import replace

        s1._handle_reply(replace(good, request_id=good.request_id + 999))
        assert s1.stats.replies_handled == 0

    def test_unknown_sender_ignored(self):
        service = make_mesh_service(3, tau=1000.0)
        s1 = service.servers["S1"]
        service.run_until(1.0)
        s1._start_round()
        s1._round.outstanding.discard("S3")
        s1._handle_reply(self._poll_reply(s1, origin="S3"))
        assert s1.stats.replies_handled == 0

    def test_all_sends_failing_closes_round_immediately(self):
        service = make_mesh_service(2, tau=1000.0)
        service.run_until(1.0)
        service.network.link("S1", "S2").take_down()
        s1 = service.servers["S1"]
        s1._start_round()
        # The transport refused every poll: nothing can ever answer, so
        # the round must not sit open until the timeout.
        assert s1.stats.polls_unsent == 1
        assert s1._round.closed
        assert s1.stats.rounds == 1


class TestChurn:
    def _rejoin_round_time(self, name, rejoin_at=50.0):
        service = make_mesh_service(3, tau=30.0)
        server = service.servers[name]
        service.run_until(rejoin_at)
        server.leave()
        times = []
        original = server._start_round

        def recording():
            times.append(service.engine.now)
            original()

        server._start_round = recording
        server.rejoin(1.0)
        service.run_until(rejoin_at + 40.0)
        return times[0]

    def test_rejoin_stagger_deterministic(self):
        assert self._rejoin_round_time("S1") == self._rejoin_round_time("S1")

    def test_rejoin_stagger_decorrelated_across_servers(self):
        t1 = self._rejoin_round_time("S1")
        t2 = self._rejoin_round_time("S2")
        assert t1 != t2
        # Both restart within (τ/2, τ] of the rejoin instant.
        for t in (t1, t2):
            assert 50.0 + 15.0 <= t <= 50.0 + 30.0

    def test_recovery_timeout_releases_inflight_and_counts(self):
        engine = SimulationEngine()
        network = Network(
            engine, full_mesh(3), RngRegistry(seed=0),
            lan_delay=ConstantDelay(0.01),
        )
        recovery = ThirdServerRecovery()
        server = TimeServer(
            engine,
            "S1",
            DriftingClock(0.0),
            1e-4,
            network,
            policy=None,
            initial_error=0.5,
            recovery=recovery,
        )
        network.register(server)
        server.start()
        server._recovery_inflight = (42, "S2", 0.0)
        server._recovery_timeout(42)
        assert server._recovery_inflight is None
        assert recovery.stats.recoveries_timed_out == 1
        # A stale timeout for an already-settled attempt is a no-op.
        server._recovery_timeout(42)
        assert recovery.stats.recoveries_timed_out == 1

    def test_leave_abandons_inflight_recovery(self):
        engine = SimulationEngine()
        network = Network(
            engine, full_mesh(3), RngRegistry(seed=0),
            lan_delay=ConstantDelay(0.01),
        )
        recovery = ThirdServerRecovery()
        server = TimeServer(
            engine,
            "S1",
            DriftingClock(0.0),
            1e-4,
            network,
            policy=None,
            initial_error=0.5,
            recovery=recovery,
        )
        network.register(server)
        server.start()
        server._recovery_inflight = (7, "S3", 0.0)
        server.leave()
        assert server._recovery_inflight is None
        assert recovery.stats.recoveries_timed_out == 1


class TestOverlappingRounds:
    def test_slow_network_rounds_still_progress(self):
        """Round trips near τ: each new round force-closes its predecessor
        and the service still synchronizes."""
        specs = [
            ServerSpec("S1", delta=1e-4, skew=8e-5),
            ServerSpec("S2", delta=1e-4, skew=-8e-5),
            ServerSpec("S3", reference=True, initial_error=0.001),
        ]
        service = build_service(
            full_mesh(3),
            specs,
            policy=IMPolicy(),
            tau=4.0,
            seed=0,
            lan_delay=UniformDelay(1.5),  # rtt up to 3 s vs τ = 4 s
            round_timeout=3.9,
        )
        service.run_until(400.0)
        snap = service.snapshot()
        assert snap.all_correct
        assert all(
            s.stats.rounds > 50
            for s in service.servers.values()
            if s.policy is not None
        )

    def test_round_timeout_closes_partial_rounds(self):
        service = make_mesh_service(3, IMPolicy(), tau=30.0, trace_enabled=True)
        # Cut one link: every round at S1 loses S2's (or S3's) reply.
        service.network.link("S1", "S2").take_down()
        service.run_until(300.0)
        server = service.servers["S1"]
        # Rounds complete anyway (by timeout) and resets still happen.
        assert server.stats.rounds >= 9
        assert server.stats.resets > 0
        assert server.is_correct()


class TestRecoveryEdgeCases:
    def _racing_mesh(self, n, recovery=ThirdServerRecovery):
        """S1 races; the other ``n - 1`` servers answer only, so every
        recovery reply travels to S1 from one of them."""
        specs = [ServerSpec("S1", delta=1e-6, skew=0.01)] + [
            ServerSpec(f"S{k}", delta=1e-6, skew=0.0, polls=False)
            for k in range(2, n + 1)
        ]
        return build_service(
            full_mesh(n),
            specs,
            policy=MMPolicy(),
            tau=20.0,
            seed=0,
            lan_delay=ConstantDelay(0.01),
            recovery_factory=lambda name: recovery(),
            trace_enabled=True,
        )

    def test_lost_recovery_reply_releases_inflight_slot(self):
        service = self._racing_mesh(3)
        # Drop every message into S1 after a while: recovery replies lost.
        service.run_until(100.0)
        service.network.link("S1", "S2").loss_probability = 1.0
        service.network.link("S1", "S3").loss_probability = 1.0
        service.run_until(200.0)
        # Heal; recovery must resume (the in-flight slot was timed out,
        # not leaked).
        service.network.link("S1", "S2").loss_probability = 0.0
        service.network.link("S1", "S3").loss_probability = 0.0
        before = service.servers["S1"].stats.recovery_resets
        service.run_until(400.0)
        assert service.servers["S1"].stats.recovery_resets > before

    def test_recovery_with_rng_choice(self):
        service = self._racing_mesh(
            4, lambda: ThirdServerRecovery(rng=np.random.default_rng(0))
        )
        service.run_until(600.0)
        arbiters = {
            row.data["arbiter"]
            for row in service.trace.filter(kind="recovery_start", source="S1")
        }
        # Random choice across episodes exercises more than one arbiter.
        assert len(arbiters) >= 2

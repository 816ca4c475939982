"""Tests for the crash-recovery / self-stabilizing subsystem.

Covers the stable store (checksums, torn writes, corruption), the gossip
census, the stabilizer's vetting pipeline, the recovery-stats accounting
invariant under lost messages and mid-recovery departures, the widened
arbiter exclusion (both liars of a Figure 4 pair banned), the monitor's
crash-window exemption, and the figure4_repair acceptance scenario.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core.mm import MMPolicy
from repro.core.recovery import RecoveryStrategy, ThirdServerRecovery
from repro.experiments import figure4_repair
from repro.faults import FaultSchedule, ServerCrash, attach_chaos
from repro.network.delay import UniformDelay
from repro.recovery import (
    Checkpoint,
    ConsistencyCensus,
    SelfStabilizingRecovery,
    StabilizerConfig,
    StableStore,
)
from repro.service.builder import ServerSpec, build_service
from repro.service.messages import RequestKind, TimeReply, TimeRequest


def _checkpoint(**overrides) -> Checkpoint:
    base = dict(
        server="S1",
        clock_value=123.456,
        error=0.025,
        rate_estimate=0.0,
        epoch=2,
        sequence=7,
    )
    base.update(overrides)
    return Checkpoint(**base)


class TestStableStore:
    def test_roundtrip(self):
        store = StableStore()
        checkpoint = _checkpoint()
        store.write(checkpoint)
        assert store.read("S1") == checkpoint
        assert store.stats.writes == 1
        assert store.stats.read_hits == 1

    def test_missing_slot_is_a_miss(self):
        store = StableStore()
        assert store.read("nobody") is None
        assert store.stats.read_misses == 1
        assert not store.has_slot("nobody")

    def test_corruption_fails_checksum(self):
        store = StableStore()
        store.write(_checkpoint())
        assert store.corrupt("S1")
        assert store.read("S1") is None
        assert store.stats.checksum_failures == 1
        # A fresh write heals the slot.
        store.write(_checkpoint(sequence=8))
        assert store.read("S1").sequence == 8

    def test_corrupting_an_empty_slot_reports_false(self):
        assert not StableStore().corrupt("S1")

    def test_torn_write_detected_on_read(self):
        store = StableStore()
        store.tear("S1")
        store.write(_checkpoint())
        assert store.has_slot("S1")
        assert store.read("S1") is None
        assert store.stats.torn_writes == 1
        assert store.stats.checksum_failures == 1
        # Only the armed write is torn; the next one is fine.
        store.write(_checkpoint(sequence=8))
        assert store.read("S1") is not None

    def test_wipe(self):
        store = StableStore()
        store.write(_checkpoint())
        store.wipe("S1")
        assert not store.has_slot("S1")
        assert store.read("S1") is None

    def test_decode_rejects_malformed_payload(self):
        with pytest.raises(ValueError):
            Checkpoint.decode("not|a|checkpoint")
        assert Checkpoint.decode(_checkpoint().encode()) == _checkpoint()

    def test_slots_are_independent(self):
        store = StableStore()
        store.write(_checkpoint(server="S1"))
        store.write(_checkpoint(server="S2", epoch=9))
        store.corrupt("S1")
        assert store.read("S1") is None
        assert store.read("S2").epoch == 9


class TestConsistencyCensus:
    def test_direct_observation_and_export(self):
        census = ConsistencyCensus(owner="A")
        census.observe("B", True, now_local=100.0)
        census.observe("C", False, now_local=105.0)
        exported = census.export(now_local=110.0)
        assert ("A", "B", True, 10.0) in exported
        assert ("A", "C", False, 5.0) in exported

    def test_gossip_relay_accumulates_age(self):
        a = ConsistencyCensus(owner="A")
        b = ConsistencyCensus(owner="B")
        a.observe("C", False, now_local=100.0)
        # B merges A's export 20 local seconds later (age 10 on the wire).
        b.merge(a.export(now_local=110.0), now_local=500.0)
        exported = b.export(now_local=520.0)
        assert ("A", "C", False, 30.0) in exported  # 10 carried + 20 here

    def test_own_verdicts_not_clobbered_by_gossip(self):
        a = ConsistencyCensus(owner="A")
        a.observe("B", True, now_local=100.0)
        a.merge([("A", "B", False, 0.0)], now_local=100.0)
        entry = {(e.observer, e.subject): e for e in a.fresh_entries(100.0)}
        assert entry[("A", "B")].ok is True
        assert entry[("A", "B")].direct is True

    def test_freshness_horizon_expires_verdicts(self):
        census = ConsistencyCensus(owner="A", horizon=50.0)
        census.observe("B", True, now_local=100.0)
        assert census.fresh_entries(149.0)
        assert not census.fresh_entries(151.0)
        # An already-expired relay is dropped on arrival.
        census.merge([("C", "D", True, 60.0)], now_local=100.0)
        assert not [
            e for e in census.fresh_entries(100.0) if e.observer == "C"
        ]

    def test_edge_verdict_is_the_conjunction(self):
        census = ConsistencyCensus(owner="A")
        census.observe("B", True, now_local=100.0)
        census.merge([("B", "A", False, 0.0)], now_local=100.0)
        verdicts = census.edge_verdicts(100.0)
        assert verdicts[frozenset({"A", "B"})] is False

    def test_support_excludes_requested_edges(self):
        census = ConsistencyCensus(owner="G1")
        census.observe("G2", False, now_local=100.0)  # G1's own skewed view
        census.merge(
            [("G2", "G3", True, 0.0), ("G2", "G4", True, 0.0)],
            now_local=100.0,
        )
        # Counting G1's edge, G2 looks 2/3; excluding it, unanimous.
        assert census.support("G2", 100.0) == pytest.approx(2.0 / 3.0)
        assert census.support("G2", 100.0, exclude=("G1",)) == 1.0

    def test_support_none_without_data(self):
        census = ConsistencyCensus(owner="G1")
        assert census.support("G2", 100.0) is None

    def test_groups_and_partitioned(self):
        census = ConsistencyCensus(owner="A")
        census.observe("B", True, now_local=10.0)
        census.merge(
            [("B", "C", False, 0.0), ("C", "B", False, 0.0)], now_local=10.0
        )
        groups = census.groups(["A", "B", "C"], 10.0)
        assert ("A", "B") in groups and ("C",) in groups
        assert census.partitioned(["A", "B", "C"], 10.0)

    def test_forget_drops_both_directions(self):
        census = ConsistencyCensus(owner="A")
        census.observe("B", True, now_local=10.0)
        census.merge([("B", "A", True, 0.0)], now_local=10.0)
        census.forget("B")
        assert not census.fresh_entries(10.0)


class _StubServer:
    """The slice of a stabilizing server the stabilizer consults."""

    def __init__(self, now_local: float = 1000.0):
        self._now = now_local
        self.last_merge_local = None
        self.census = ConsistencyCensus(owner="G1")
        self.dissonant = set()
        self.epochs = {}

    def clock_value(self) -> float:
        return self._now

    def dissonant_neighbours(self):
        return set(self.dissonant)

    def epoch_of(self, name: str) -> int:
        return self.epochs.get(name, 0)


class TestSelfStabilizingRecovery:
    NEIGHBOURS = ["B1", "B2", "C", "D"]

    def test_unbound_behaves_like_third_server_rule(self):
        strategy = SelfStabilizingRecovery()
        assert (
            strategy.choose_arbiter("G1", self.NEIGHBOURS, ("B1",)) == "B2"
        )

    def test_hysteresis_holds_after_a_merge(self):
        strategy = SelfStabilizingRecovery()
        server = _StubServer(now_local=1000.0)
        server.last_merge_local = 900.0  # 100 s ago < merge_hold 240 s
        strategy.bind(server)
        assert strategy.choose_arbiter("G1", self.NEIGHBOURS, ("B1",)) is None
        assert strategy.stabilizer_stats.held == 1

    def test_consonance_veto_removes_dissonant_candidates(self):
        strategy = SelfStabilizingRecovery()
        server = _StubServer()
        server.dissonant = {"B2"}
        server.census.merge(
            [("C", "D", True, 0.0), ("D", "C", True, 0.0)],
            now_local=server.clock_value(),
        )
        strategy.bind(server)
        arbiter = strategy.choose_arbiter("G1", self.NEIGHBOURS, ("B1",))
        assert arbiter in {"C", "D"}
        assert strategy.stabilizer_stats.vetoed_dissonant == 1

    def test_census_majority_veto(self):
        strategy = SelfStabilizingRecovery()
        server = _StubServer()
        server.census.merge(
            [
                ("B2", "C", False, 0.0),  # B2 condemned by the census
                ("B2", "D", False, 0.0),
                ("C", "D", True, 0.0),
                ("C", "X", True, 0.0),  # C and D each carry a clear
                ("D", "X", True, 0.0),  # majority of ok edges
            ],
            now_local=server.clock_value(),
        )
        strategy.bind(server)
        arbiter = strategy.choose_arbiter("G1", self.NEIGHBOURS, ("B1",))
        assert arbiter in {"C", "D"}
        assert strategy.stabilizer_stats.vetoed_support == 1
        assert strategy.stabilizer_stats.census_choices == 1

    def test_recovering_servers_own_edges_do_not_veto(self):
        # G1 is stranded in the wrong group: it judges everyone
        # inconsistent.  Its own edges must not veto the good arbiter.
        strategy = SelfStabilizingRecovery()
        server = _StubServer()
        server.census.observe("C", False, now_local=server.clock_value())
        server.census.merge(
            [("C", "D", True, 0.0)], now_local=server.clock_value()
        )
        strategy.bind(server)
        assert strategy.choose_arbiter("G1", ["B1", "C"], ("B1",)) == "C"

    def test_epoch_breaks_support_ties(self):
        strategy = SelfStabilizingRecovery()
        server = _StubServer()
        server.census.merge(
            [("C", "X", True, 0.0), ("D", "X", True, 0.0)],
            now_local=server.clock_value(),
        )
        server.epochs = {"C": 1, "D": 3}
        strategy.bind(server)
        assert strategy.choose_arbiter("G1", self.NEIGHBOURS, ("B1", "B2")) == "D"

    def test_censusless_fallback(self):
        strategy = SelfStabilizingRecovery()
        strategy.bind(_StubServer())
        arbiter = strategy.choose_arbiter("G1", self.NEIGHBOURS, ("B1",))
        assert arbiter == "B2"  # exclusion-based pick, no census data
        assert strategy.stabilizer_stats.fallback_choices == 1

    def test_no_arbiter_when_everything_vetoed(self):
        strategy = SelfStabilizingRecovery()
        server = _StubServer()
        server.dissonant = {"B2", "C", "D"}
        strategy.bind(server)
        assert strategy.choose_arbiter("G1", self.NEIGHBOURS, ("B1",)) is None
        assert strategy.stats.no_arbiter == 1


def _recovery_mesh(seed: int = 0, **build_kwargs):
    """A 3-mesh where A/C are good and B drifts far beyond its claim —
    every good server soon finds B inconsistent and starts recoveries."""
    graph = nx.complete_graph(["A", "B", "C"])
    specs = [
        ServerSpec("A", delta=1e-5, skew=+2e-6),
        ServerSpec("B", delta=1e-5, skew=+5e-3),
        ServerSpec("C", delta=1e-5, skew=0.0),
    ]
    return build_service(
        graph,
        specs,
        policy=MMPolicy(),
        tau=30.0,
        seed=seed,
        lan_delay=UniformDelay(0.01),
        recovery_factory=lambda name: ThirdServerRecovery(),
        trace_enabled=True,
        **build_kwargs,
    )


class TestRecoveryStatsInvariant:
    """Satellite: ``started == completed + timed_out + in_flight`` always."""

    def _assert_all_balanced(self, service):
        for name, server in service.servers.items():
            stats = server.recovery.stats
            assert stats.balanced, f"{name}: {stats}"

    def test_balanced_on_the_happy_path(self):
        service = _recovery_mesh()
        service.run_until(900.0)
        stats = service.servers["A"].recovery.stats
        assert stats.recoveries_started > 0
        assert stats.recoveries_completed > 0
        self._assert_all_balanced(service)

    def test_balanced_under_lost_recovery_replies(self):
        service = _recovery_mesh()

        def drop_recovery_replies(source, destination, message, delay):
            if (
                isinstance(message, TimeReply)
                and message.kind is RequestKind.RECOVERY
            ):
                return []
            return None

        service.network.add_tap(drop_recovery_replies)
        service.run_until(900.0)
        stats = service.servers["A"].recovery.stats
        assert stats.recoveries_started > 0
        assert stats.recoveries_completed == 0
        assert stats.recoveries_timed_out > 0
        self._assert_all_balanced(service)

    def test_balanced_under_lost_recovery_requests(self):
        service = _recovery_mesh()

        def drop_recovery_requests(source, destination, message, delay):
            if (
                isinstance(message, TimeRequest)
                and message.kind is RequestKind.RECOVERY
            ):
                return []
            return None

        service.network.add_tap(drop_recovery_requests)
        service.run_until(900.0)
        stats = service.servers["A"].recovery.stats
        assert stats.recoveries_started > 0
        assert stats.recoveries_completed == 0
        assert stats.recoveries_timed_out > 0
        self._assert_all_balanced(service)

    def test_balanced_when_server_leaves_mid_recovery(self):
        # The in-flight window is tiny (the round timeout), so the
        # departure is hooked to fire the instant a recovery starts.
        service = _recovery_mesh()
        server = service.servers["A"]
        original = server.recovery.note_started

        def start_then_leave():
            original()
            assert server._recovery_inflight is not None
            server.leave()

        server.recovery.note_started = start_then_leave
        service.run_until(900.0)
        stats = server.recovery.stats
        assert stats.recoveries_started >= 1
        assert stats.recoveries_timed_out >= 1
        assert stats.recoveries_in_flight == 0
        assert server.departed
        self._assert_all_balanced(service)


class _SpyRecovery(RecoveryStrategy):
    """Records every exclusion set it is handed; never recovers."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def choose_arbiter(self, server_name, neighbours, conflicting):
        self.calls.append(tuple(conflicting))
        return None


def _star_service(recovery_factory):
    """A with three neighbours (B1, B2, C); no polling noise (huge tau)."""
    graph = nx.Graph()
    graph.add_edges_from([("A", "B1"), ("A", "B2"), ("A", "C")])
    specs = [
        ServerSpec(name, delta=1e-5, skew=0.0)
        for name in ["A", "B1", "B2", "C"]
    ]
    return build_service(
        graph,
        specs,
        policy=MMPolicy(),
        tau=10_000.0,
        seed=0,
        lan_delay=UniformDelay(0.01),
        recovery_factory=recovery_factory,
        trace_enabled=True,
    )


class TestArbiterExclusionWidening:
    """Satellite: every neighbour flagged this round *or* last round is
    banned from arbitration — not just the reply that triggered it."""

    def test_previous_round_flags_are_banned(self):
        spies = {}

        def factory(name):
            spies[name] = _SpyRecovery()
            return spies[name]

        service = _star_service(factory)
        server = service.servers["A"]
        server._prev_round_inconsistent = {"B1"}
        server._note_inconsistency(("B2",))
        # First attempt: both liars banned.
        assert set(spies["A"].calls[0]) == {"B2", "B1"}
        # The spy returned None with a widened ban, so the fallback
        # retries with only the triggering event's set.
        assert spies["A"].calls[1] == ("B2",)

    def test_arbiter_avoids_the_second_liar(self):
        service = _star_service(lambda name: ThirdServerRecovery())
        server = service.servers["A"]
        server._prev_round_inconsistent = {"B1"}
        server._note_inconsistency(("B2",))
        starts = service.trace.filter(kind="recovery_start")
        assert starts and starts[-1].data["arbiter"] == "C"

    def test_fallback_when_every_neighbour_is_flagged(self):
        # A server whose own clock is bad flags everyone; refusing to
        # recover at all would strand it, so the ban falls back to the
        # triggering set ("some arbiter beats none" under the paper rule).
        service = _star_service(lambda name: ThirdServerRecovery())
        server = service.servers["A"]
        server._prev_round_inconsistent = {"B1", "C"}
        server._note_inconsistency(("B2",))
        starts = service.trace.filter(kind="recovery_start")
        assert starts and starts[-1].data["arbiter"] in {"B1", "C"}

    def test_rejoin_clears_the_flag_history(self):
        service = _star_service(lambda name: ThirdServerRecovery())
        server = service.servers["A"]
        server._round_inconsistent = {"B1"}
        server._prev_round_inconsistent = {"B2"}
        server.leave()
        server.rejoin(1.0)
        assert server._round_inconsistent == set()
        assert server._prev_round_inconsistent == set()


def _stabilizing_mesh(
    n: int = 3,
    tau: float = 30.0,
    seed: int = 0,
    stabilizer: StabilizerConfig | None = None,
):
    names = [f"S{k + 1}" for k in range(n)]
    skews = [+2e-6, -2e-6, +1e-6, -1e-6][:n]
    specs = [
        ServerSpec(name, delta=1e-5, skew=skew, self_stabilizing=True)
        for name, skew in zip(names, skews)
    ]
    return build_service(
        nx.complete_graph(names),
        specs,
        policy=MMPolicy(),
        tau=tau,
        seed=seed,
        lan_delay=UniformDelay(0.01),
        recovery_factory=lambda name: SelfStabilizingRecovery(),
        trace_enabled=True,
        stabilizer=stabilizer,
    )


@pytest.mark.recovery
class TestSelfStabilizingServer:
    def test_checkpoints_flow_to_the_store(self):
        service = _stabilizing_mesh()
        service.run_until(200.0)
        for name in service.servers:
            checkpoint = service.stable_store.read(name)
            assert checkpoint is not None
            assert checkpoint.server == name
            assert checkpoint.error > 0.0
        assert service.stable_store.stats.writes >= 3 * 6

    def test_warm_restart_is_correct(self):
        service = _stabilizing_mesh()
        service.run_until(300.0)
        server = service.servers["S2"]
        server.crash()
        service.run_until(500.0)
        report = server.restart(cold_error=5.0)
        assert report.warm
        assert report.downtime_local == pytest.approx(200.0, rel=1e-3)
        assert report.rebuilt_error < 5.0
        assert report.correct
        assert server.restart_reports == [report]

    def test_corrupt_checkpoint_forces_cold_start(self):
        service = _stabilizing_mesh()
        service.run_until(300.0)
        server = service.servers["S2"]
        server.crash()
        service.stable_store.corrupt("S2")
        service.stable_store.tear("S2")
        service.run_until(400.0)
        report = server.restart(cold_error=5.0)
        assert not report.warm
        assert report.rebuilt_error == 5.0

    def test_stale_checkpoint_forces_cold_start(self):
        config = StabilizerConfig(checkpoint_stale_after=50.0)
        service = _stabilizing_mesh(stabilizer=config)
        service.run_until(300.0)
        server = service.servers["S2"]
        server.crash()
        service.run_until(500.0)  # downtime 200 s > stale_after 50 s
        report = server.restart(cold_error=5.0)
        assert not report.warm

    def test_census_converges_to_one_clique(self):
        service = _stabilizing_mesh()
        service.run_until(300.0)
        server = service.servers["S1"]
        groups = server.census.groups(
            sorted(service.servers), server.clock_value()
        )
        assert groups[0] == ("S1", "S2", "S3")

    def test_replies_gossip_epoch_and_verdicts(self):
        service = _stabilizing_mesh()
        service.run_until(300.0)
        server = service.servers["S1"]
        extras = server._reply_extras()
        assert extras["epoch"] == server.epoch
        assert extras["verdicts"]  # fresh census rides on replies


@pytest.mark.recovery
class TestMonitorCrashWindows:
    """Satellite: a crashed-and-revived server re-enters the monitor's
    checks as non-faulty only after the crash-window exemption expires."""

    def test_window_bounds_include_grace(self):
        service = _stabilizing_mesh()
        schedule = FaultSchedule(
            [ServerCrash(at=10.0, server="S2", downtime=5.0)]
        )
        injector, monitor = attach_chaos(
            service, schedule, monitor_grace=2.0, start=False
        )
        assert monitor._in_crash_window("S2", 10.0)
        assert monitor._in_crash_window("S2", 15.0)
        assert monitor._in_crash_window("S2", 17.0)  # end + grace
        assert not monitor._in_crash_window("S2", 17.5)
        assert not monitor._in_crash_window("S2", 9.9)
        assert not monitor._in_crash_window("S1", 12.0)

    def test_revived_server_checked_only_after_exemption_expires(self):
        # Huge tau: no sync round repairs the server mid-test, so the
        # moment it is checked again is visible in the violation times.
        service = _stabilizing_mesh(tau=10_000.0)
        schedule = FaultSchedule(
            [
                ServerCrash(
                    at=300.0, server="S2", downtime=60.0, rejoin_error=1e-7
                )
            ]
        )
        injector, monitor = attach_chaos(
            service, schedule, monitor_period=5.0, monitor_grace=2.0
        )
        service.run_until(299.0)
        # No usable checkpoint: the revival is a cold start whose tiny
        # operator error cannot cover the drift — incorrect on revival.
        service.stable_store.wipe("S2")
        service.stable_store.tear("S2")
        service.run_until(420.0)
        report = service.servers["S2"].restart_reports[-1]
        assert not report.warm and not report.correct
        violations = [
            v for v in monitor.violations if "S2" in v.servers
        ]
        assert violations, "revived incorrect server was never checked"
        # ... but never while the crash window (+ grace) still held.
        assert all(v.time > 360.0 + 2.0 for v in violations)
        assert monitor.stats.exemptions > 0


@pytest.mark.recovery
class TestFigure4Repair:
    """The acceptance scenario: plain rule partitions, stabilizer repairs."""

    def test_plain_rule_ends_partitioned(self):
        result = figure4_repair.run(self_stabilizing=False)
        assert len(result.groups_good) >= 2
        assert result.poisoned_recoveries > 0
        assert result.core_still_correct

    def test_self_stabilizing_layer_remerges(self):
        result = figure4_repair.run(self_stabilizing=True)
        assert result.merged
        assert len(result.groups_good) == 1
        assert set(result.groups_good[0].members) == set(figure4_repair.GOOD)
        assert result.correctness_violations == 0
        assert result.consistency_violations == 0
        assert result.census_detected_split
        assert result.census_clean_at_end
        assert result.final_epochs["G1"] > 0  # G1 merged its way back

    def test_comparison_verdicts(self):
        comparison = figure4_repair.run_comparison()
        assert comparison.figure4_reproduced
        assert comparison.repaired
        assert (
            comparison.stabilized.poisoned_recoveries
            < comparison.plain.poisoned_recoveries
        )

    def test_crash_soak_warm_restarts_correct_across_seeds(self):
        rows = figure4_repair.crash_soak(seeds=(1, 2, 3, 4, 5))
        assert len(rows) == 5
        for row in rows:
            assert row.warm_restarts >= 1, row
            assert row.cold_restarts >= 1, row  # sabotage forced one
            assert row.warm_all_correct, row
            assert row.correctness_violations == 0, row

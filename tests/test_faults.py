"""Unit and soak tests for the chaos subsystem (schedule/injector/monitor)."""

from __future__ import annotations

import math

import pytest

from repro.clocks.failures import RacingClock, StoppedClock
from repro.experiments import chaos_soak
from repro.faults import (
    ByzantineReplies,
    ClockFreeze,
    ClockRace,
    ClockStep,
    DelaySpike,
    FaultSchedule,
    InvariantMonitor,
    LinkFlap,
    LossBurst,
    MessageDuplication,
    PartitionFault,
    ServerCrash,
    attach_chaos,
)
from repro.service.messages import TimeReply

from tests.helpers import make_mesh_service

NAMES = ["S1", "S2", "S3", "S4"]
EDGES = [("S1", "S2"), ("S1", "S3"), ("S2", "S3"), ("S3", "S4")]


class TestSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule(
            [
                LinkFlap(at=9.0, a="S1", b="S2", downtime=1.0),
                ClockStep(at=2.0, server="S1", offset=1.0),
            ]
        )
        assert [event.at for event in schedule] == [2.0, 9.0]

    def test_same_seed_same_timeline(self):
        kwargs = dict(names=NAMES, edges=EDGES, horizon=3600.0)
        one = FaultSchedule.random(seed=5, **kwargs)
        two = FaultSchedule.random(seed=5, **kwargs)
        assert one.describe() == two.describe()
        assert one.signature() == two.signature()
        assert len(one) > 0

    def test_different_seeds_differ(self):
        kwargs = dict(names=NAMES, edges=EDGES, horizon=3600.0)
        assert (
            FaultSchedule.random(seed=1, **kwargs).signature()
            != FaultSchedule.random(seed=2, **kwargs).signature()
        )

    def test_warmup_respected(self):
        schedule = FaultSchedule.random(
            seed=3, names=NAMES, edges=EDGES, horizon=3600.0, warmup=300.0
        )
        assert all(event.at >= 300.0 for event in schedule)

    def test_fault_windows_taint_semantics(self):
        schedule = FaultSchedule(
            [
                ClockStep(at=10.0, server="S1", offset=1.0),
                ClockFreeze(at=20.0, server="S2", duration=5.0),
                ByzantineReplies(at=30.0, server="S3", duration=5.0, offset=1.0),
                ServerCrash(at=40.0, server="S4", downtime=5.0),
            ]
        )
        windows = {w.server: w for w in schedule.server_fault_windows()}
        assert windows["S1"].taints_self and windows["S1"].end == 10.0
        assert windows["S2"].taints_self and windows["S2"].end == 25.0
        assert not windows["S3"].taints_self  # the liar's own clock is honest
        assert "S4" not in windows  # crashes are exempt live, not tainted

    def test_clock_windows_never_overlap_per_server(self):
        schedule = FaultSchedule.random(
            seed=7,
            names=["S1", "S2"],
            edges=[("S1", "S2")],
            horizon=7200.0,
            server_fault_rate=40.0,
        )
        spans: dict[str, list[tuple[float, float]]] = {}
        for w in schedule.server_fault_windows():
            spans.setdefault(w.server, []).append((w.start, w.end))
        for intervals in spans.values():
            intervals.sort()
            for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2


def make_chaos_service(schedule, *, n=3, monitor=False, **kwargs):
    service = make_mesh_service(n, tau=10.0, **kwargs)
    injector, watcher = attach_chaos(service, schedule, monitor=monitor)
    return service, injector, watcher


class TestInjector:
    def test_link_flap_down_then_up(self):
        schedule = FaultSchedule([LinkFlap(at=1.0, a="S1", b="S2", downtime=5.0)])
        service, injector, _ = make_chaos_service(schedule)
        link = service.network.link("S1", "S2")
        service.run_until(2.0)
        assert not link.up
        service.run_until(7.0)
        assert link.up

    def test_overlapping_flaps_reference_counted(self):
        schedule = FaultSchedule(
            [
                LinkFlap(at=1.0, a="S1", b="S2", downtime=10.0),
                LinkFlap(at=3.0, a="S1", b="S2", downtime=2.0),
            ]
        )
        service, injector, _ = make_chaos_service(schedule)
        link = service.network.link("S1", "S2")
        service.run_until(6.0)  # the short flap ended, the long one holds
        assert not link.up
        service.run_until(12.0)
        assert link.up

    def test_delay_spike_restored_exactly(self):
        schedule = FaultSchedule(
            [DelaySpike(at=1.0, a="S1", b="S2", scale=4.0, extra=0.2, duration=3.0)]
        )
        service, injector, _ = make_chaos_service(schedule)
        link = service.network.link("S1", "S2")
        service.run_until(2.0)
        assert link.delay_scale == pytest.approx(4.0)
        assert link.delay_extra == pytest.approx(0.2)
        service.run_until(5.0)
        assert link.delay_scale == pytest.approx(1.0)
        assert link.delay_extra == pytest.approx(0.0)

    def test_loss_bursts_compose(self):
        schedule = FaultSchedule(
            [
                LossBurst(at=1.0, a="S1", b="S2", probability=0.5, duration=10.0),
                LossBurst(at=2.0, a="S1", b="S2", probability=0.5, duration=2.0),
            ]
        )
        service, injector, _ = make_chaos_service(schedule)
        link = service.network.link("S1", "S2")
        service.run_until(3.0)
        assert link.fault_loss == pytest.approx(0.75)
        service.run_until(5.0)
        assert link.fault_loss == pytest.approx(0.5)
        service.run_until(12.0)
        assert link.fault_loss == pytest.approx(0.0)

    def test_partition_and_heal(self):
        schedule = FaultSchedule(
            [PartitionFault(at=1.0, groups=(("S1",), ("S2", "S3")), duration=4.0)]
        )
        service, injector, _ = make_chaos_service(schedule)
        service.run_until(2.0)
        assert not service.network.send("S1", "S2", "x")
        service.run_until(6.0)
        assert service.network.send("S1", "S2", "x")

    def test_clock_step_moves_clock(self):
        schedule = FaultSchedule([ClockStep(at=5.0, server="S1", offset=2.5)])
        service, injector, _ = make_chaos_service(schedule, n=2)
        server = service.servers["S1"]
        service.run_until(4.0)
        before = server.clock.read(4.0)
        service.run_until(6.0)
        assert server.clock.read(6.0) == pytest.approx(before + 2.0 + 2.5, abs=1e-3)

    def test_clock_freeze_wraps_and_detaches(self):
        schedule = FaultSchedule([ClockFreeze(at=5.0, server="S1", duration=10.0)])
        service, injector, _ = make_chaos_service(schedule, n=2)
        server = service.servers["S1"]
        inner = server.clock
        service.run_until(6.0)
        assert isinstance(server.clock, StoppedClock)
        frozen = server.clock.read(6.0)
        service.run_until(16.0)
        assert server.clock is inner  # unwrapped back to the real clock
        # ... resuming from the frozen value: still ~10 s behind true time.
        assert server.clock.read(16.0) == pytest.approx(frozen + 1.0, abs=1e-2)

    def test_clock_race_wraps(self):
        schedule = FaultSchedule(
            [ClockRace(at=5.0, server="S1", skew=0.5, duration=4.0)]
        )
        service, injector, _ = make_chaos_service(schedule, n=2)
        server = service.servers["S1"]
        service.run_until(6.0)
        assert isinstance(server.clock, RacingClock)
        service.run_until(10.0)
        # Raced ahead by ~0.5 s/s for 4 s, kept after detach.
        assert server.clock.read(10.0) - 10.0 == pytest.approx(2.0, abs=0.51)

    def test_overlapping_clock_faults_skipped(self):
        schedule = FaultSchedule(
            [
                ClockFreeze(at=5.0, server="S1", duration=10.0),
                ClockRace(at=7.0, server="S1", skew=0.5, duration=2.0),
            ]
        )
        service, injector, _ = make_chaos_service(schedule, n=2)
        service.run_until(8.0)
        assert isinstance(service.servers["S1"].clock, StoppedClock)

    def test_server_crash_and_rejoin(self):
        schedule = FaultSchedule(
            [ServerCrash(at=5.0, server="S1", downtime=10.0, rejoin_error=1.5)]
        )
        service, injector, _ = make_chaos_service(schedule)
        service.run_until(6.0)
        assert service.servers["S1"].departed
        service.run_until(16.0)
        assert not service.servers["S1"].departed
        _value, error = service.servers["S1"].report()
        assert error >= 1.5 - 1e-9

    def test_byzantine_tap_rewrites_replies(self):
        schedule = FaultSchedule(
            [ByzantineReplies(at=0.0, server="S2", duration=50.0, offset=7.0)]
        )
        service, injector, _ = make_chaos_service(schedule, n=2)
        received = []

        def observe(source, destination, message, delay):
            if source == "S2" and isinstance(message, TimeReply):
                received.append((service.engine.now, message))
            return None

        # Let the Byzantine tap install first (event at t=0) so ours runs
        # after it and observes the rewritten replies.
        service.run_until(0.001)
        service.network.add_tap(observe)
        service.run_until(25.0)
        assert received and injector.stats.lies_told >= len(received)
        # Each lie reads ~7 s ahead of true time (drift/delay are ms).
        assert all(
            abs(m.clock_value - (t + 7.0)) < 0.5 for t, m in received
        )

    def test_fault_timeline_recorded_to_trace(self):
        schedule = FaultSchedule([LinkFlap(at=1.0, a="S1", b="S2", downtime=2.0)])
        service, injector, _ = make_chaos_service(schedule)
        service.run_until(3.0)
        rows = service.trace.filter(kind="fault")
        assert len(rows) == 1 and "LinkFlap" in rows[0].data["event"]


class TestMonitor:
    def test_catches_unexcused_clock_step(self):
        # The monitor is NOT told about the fault: the stepped server's
        # interval no longer contains true time and must be flagged.
        schedule = FaultSchedule([ClockStep(at=5.0, server="S1", offset=3.0)])
        service, injector, _ = make_chaos_service(schedule, n=2)
        watcher = InvariantMonitor(
            service.engine, service.servers, service.trace, None, period=2.0
        )
        watcher.start()
        service.run_until(12.0)
        assert watcher.stats.correctness_violations > 0
        assert service.trace.count("invariant_violation") > 0

    def test_exempts_scheduled_fault(self):
        schedule = FaultSchedule([ClockStep(at=5.0, server="S1", offset=3.0)])
        service, injector, watcher = make_chaos_service(
            schedule, n=3, monitor=True
        )
        service.run_until(12.0)
        assert watcher.stats.total_violations == 0
        assert watcher.is_dirty("S1")
        assert watcher.stats.exemptions > 0

    def test_taint_propagates_and_clean_reset_clears(self):
        schedule = FaultSchedule([ClockStep(at=5.0, server="S1", offset=3.0)])
        service = make_mesh_service(3, tau=1e9)  # no organic rounds
        _injector, watcher = attach_chaos(service, schedule)
        service.run_until(6.0)
        assert watcher.is_dirty("S1")
        # S3 resets from the tainted S1 (within the grace window of the
        # step): the taint propagates.  S1 then resets from the clean S2:
        # its own taint clears.
        service.trace.record(
            6.5, "reset", "S3", from_server="S1∩self", new_error=0.1
        )
        service.trace.record(
            7.0, "reset", "S1", from_server="S2", new_error=0.1
        )
        service.run_until(12.0)
        assert watcher.is_dirty("S3")
        assert not watcher.is_dirty("S1")

    def test_reset_sources_parsing(self):
        parse = InvariantMonitor.reset_sources
        assert parse("S2") == ["S2"]
        assert parse("S2∩S3") == ["S2", "S3"]
        assert parse("S2∩self") == ["S2", "self"]
        assert parse("recovery:S3") == ["S3"]

    def test_consistency_violation_detected(self):
        service = make_mesh_service(2, tau=1e9)  # rounds never fire
        for name, offset in (("S1", -1.0), ("S2", 1.0)):
            server = service.servers[name]
            server.clock.set(0.0, offset)
            server._epsilon = 0.1
        watcher = InvariantMonitor(
            service.engine, service.servers, service.trace, None, period=1.0
        )
        watcher.start()
        service.run_until(2.0)
        assert watcher.stats.correctness_violations > 0
        assert watcher.stats.consistency_violations > 0


class TestSoak:
    def test_deterministic_replay(self):
        one = chaos_soak.run_soak("MM", seed=4, horizon=600.0)
        two = chaos_soak.run_soak("MM", seed=4, horizon=600.0)
        assert one.schedule_signature == two.schedule_signature
        assert one.trace_digest == two.trace_digest
        assert one.violations == 0

    @pytest.mark.chaos
    @pytest.mark.parametrize("policy", ["MM", "IM"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_soak_zero_violations(self, policy, seed):
        outcome = chaos_soak.run_soak(policy, seed, horizon=1200.0)
        assert outcome.events_applied > 0
        assert outcome.violations == 0
        assert outcome.survival_rate == pytest.approx(1.0)

    @pytest.mark.chaos
    def test_hardening_beats_baseline_under_attack(self):
        comparison = chaos_soak.compare_hardening(0, horizon=1200.0)
        # The plain baseline keeps tripping over the liar, forever.
        assert comparison.baseline_inconsistencies > 10 * max(
            1, comparison.hardened_inconsistencies
        )
        # Hardened honest servers stay bounded: with the reference anchor
        # the error never approaches the unanchored growth 0.05 + δ·t.
        assert comparison.hardened_worst_error < 0.15
        assert comparison.hardened_honest_correct >= comparison.baseline_honest_correct
        assert comparison.hardened_invalid_replies > 0
        assert comparison.hardened_quarantines > 0
        assert comparison.hardened_retries > 0


class TestTraceDigest:
    def test_digest_changes_with_content(self):
        from repro.simulation.trace import TraceRecorder

        one = TraceRecorder()
        one.record(1.0, "reset", "S1", new_error=0.5)
        two = TraceRecorder()
        two.record(1.0, "reset", "S1", new_error=0.25)
        assert chaos_soak.trace_digest(one) != chaos_soak.trace_digest(two)

    def test_digest_empty_is_zero(self):
        from repro.simulation.trace import TraceRecorder

        assert chaos_soak.trace_digest(TraceRecorder()) == 0


def test_corruption_produces_rejectable_garbage():
    # With rng=None the corruption tap garbles every TimeReply with NaN;
    # hardened servers must reject every one before the policy sees it.
    from repro.faults import MessageCorruption
    from repro.faults.injector import FaultInjector
    from repro.service.hardening import HardeningConfig

    service = make_mesh_service(2, tau=10.0, hardening=HardeningConfig())
    schedule = FaultSchedule(
        [MessageCorruption(at=0.0, probability=1.0, duration=100.0)]
    )
    garbled = []
    injector = FaultInjector(
        service.engine,
        service.network,
        service.servers,
        schedule,
        rng=None,
        trace=service.trace,
    )
    injector.start()
    # Let the corruption tap install (event at t=0) before observing.
    service.run_until(0.001)
    service.network.add_tap(
        lambda s, d, m, dly: garbled.append(m)
        if isinstance(m, TimeReply)
        else None
    )
    service.run_until(30.0)
    assert garbled and all(math.isnan(m.clock_value) for m in garbled)
    assert all(
        server.stats.invalid_replies > 0
        for server in service.servers.values()
    )


@pytest.mark.parametrize(
    "clock_value, error, reason",
    [
        (math.nan, 0.1, "non-finite clock value"),
        (math.inf, 0.1, "non-finite clock value"),
        (10.0, math.nan, "non-finite error"),
        (10.0, -math.inf, "non-finite error"),
        (10.0, -0.1, "negative error"),
    ],
)
def test_plain_server_refuses_garbage_replies(clock_value, error, reason):
    service = make_mesh_service(2, tau=10.0)
    server = service.servers["S1"]
    reply = TimeReply(
        request_id=1, server="S2", destination="S1",
        clock_value=clock_value, error=error,
    )
    assert server._validate_reply(reply) == reason


def test_plain_mesh_survives_a_random_chaos_schedule():
    # A stage-less MM mesh under a random soak schedule whose
    # MessageCorruption window garbles replies with NaN: every server
    # refuses the garbage, reaches the horizon, and keeps finite intervals.
    from repro.core.mm import MMPolicy
    from repro.network.delay import UniformDelay
    from repro.network.topology import full_mesh
    from repro.service.builder import ServerSpec, build_service

    graph = full_mesh(5)
    names = sorted(graph.nodes)
    service = build_service(
        graph,
        [ServerSpec(name=name, delta=1e-5) for name in names],
        policy=MMPolicy(),
        tau=10.0,
        seed=11,
        lan_delay=UniformDelay(0.01),
    )
    schedule = FaultSchedule.random(
        seed=7, names=names, edges=sorted(graph.edges), horizon=3600.0
    )
    injector = attach_chaos(service, schedule)[0]
    service.run_until(3600.0)
    assert service.engine.now == 3600.0
    assert injector.stats.messages_corrupted > 0
    assert sum(s.stats.invalid_replies for s in service.servers.values()) > 0
    for server in service.servers.values():
        value, error = server.report()
        assert math.isfinite(value) and math.isfinite(error) and error >= 0.0


def test_duplication_doubles_delivery():
    schedule = FaultSchedule(
        [MessageDuplication(at=0.0, probability=1.0, duration=100.0, extra_delay=0.01)]
    )
    service = make_mesh_service(2, tau=10.0)
    injector = attach_chaos(service, schedule, monitor=False)[0]
    service.run_until(25.0)
    assert injector.stats.messages_duplicated > 0
    # Duplicates hit the round machinery's duplicate guard, not the policy:
    # no round can handle more than one reply per polled neighbour.
    for server in service.servers.values():
        assert server.stats.replies_handled <= server.stats.rounds

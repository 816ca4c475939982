"""Holdover mode and slew/step safety rails.

Covers the :class:`HoldoverController` pure state machine, the
:class:`SlewingClock` rails (units plus Hypothesis properties over the
disciplined-clock composition), discipline persistence across warm
restarts, the hardened server's empty-neighbour round termination, the
:class:`HoldoverStage` reset rails and degraded refusal, the holdover
telemetry gauges and dashboard section, and a blackout-gauntlet smoke
cell (including replay determinism).
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.disciplined import DisciplinedClock
from repro.clocks.drift import DriftingClock
from repro.clocks.slewing import SlewingClock
from repro.core.mm import MMPolicy
from repro.core.sync import ResetDecision
from repro.experiments.blackout_gauntlet import CELLS, evaluate, run_gauntlet
from repro.holdover import (
    HoldoverConfig,
    HoldoverController,
    HoldoverStage,
    HoldoverState,
)
from repro.network.delay import ConstantDelay, UniformDelay
from repro.network.topology import full_mesh, star
from repro.network.transport import Network
from repro.recovery.server import StabilizingStage
from repro.recovery.store import Checkpoint, StableStore
from repro.service.builder import ServerSpec, build_service
from repro.service.discipline import DisciplineStage
from repro.service.hardening import (
    HardeningConfig,
    HardeningStage,
    PeerHealth,
    RetryPolicy,
    hardening_stages,
)
from repro.service.messages import RequestKind, TimeRequest
from repro.service.rate_tracking import RateTrackingStage
from repro.service.server import TimeServer
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import RngRegistry
from repro.telemetry import ServiceTelemetry
from repro.telemetry.dashboard import render_dashboard

pytestmark = pytest.mark.holdover


CFG = HoldoverConfig(no_source_window=100.0, trust_horizon=500.0, reintegrate_rounds=2)


def holdover_star(
    n_leaves: int = 2,
    *,
    tau: float = 30.0,
    seed: int = 0,
    cfg: HoldoverConfig | None = None,
    telemetry: ServiceTelemetry | None = None,
):
    """A reference hub with holdover leaves (the gauntlet's shape, small)."""
    graph = star(n_leaves + 1)
    names = sorted(graph.nodes)
    hub, leaves = names[0], names[1:]
    specs = [ServerSpec(hub, reference=True, initial_error=0.005)]
    skews = (6e-5, -8e-5, 5e-5, -4e-5)
    for name, skew in zip(leaves, skews):
        specs.append(
            ServerSpec(
                name, delta=1e-4, skew=skew, initial_error=0.05, holdover=True
            )
        )
    return build_service(
        graph,
        specs,
        policy=MMPolicy(),
        tau=tau,
        seed=seed,
        lan_delay=UniformDelay(0.01),
        telemetry=telemetry,
        holdover=cfg,
    )


# --------------------------------------------------------------------------
# Controller: the pure state machine
# --------------------------------------------------------------------------


class TestHoldoverConfig:
    def test_defaults_valid(self):
        HoldoverConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"no_source_window": 0.0},
            {"trust_horizon": -1.0},
            {"reintegrate_rounds": 0},
            {"drift_floor": -1e-9},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HoldoverConfig(**kwargs)


class TestHoldoverController:
    def test_starts_synced_with_zero_age(self):
        ctrl = HoldoverController(CFG)
        assert ctrl.state is HoldoverState.SYNCED
        assert ctrl.holdover_age(50.0) == 0.0
        assert ctrl.expected_error(50.0) == 0.0

    def test_sourced_rounds_keep_synced(self):
        ctrl = HoldoverController(CFG)
        ctrl.note_round(30.0, sources=2, consistent=True)
        ctrl.note_round(60.0, sources=1, consistent=True)
        # A dry round inside the window does not trip holdover.
        ctrl.note_round(120.0, sources=0, consistent=False)
        assert ctrl.state is HoldoverState.SYNCED
        assert ctrl.since_last_source(120.0) == pytest.approx(60.0)

    def test_no_source_window_enters_holdover(self):
        ctrl = HoldoverController(CFG)
        ctrl.note_round(10.0, sources=1, consistent=True)
        ctrl.note_round(115.0, sources=0, consistent=False, error=0.02, drift=3e-5)
        assert ctrl.state is HoldoverState.HOLDOVER
        assert ctrl.transitions[-1][3] == "no_source_window"
        assert ctrl.effective_drift == pytest.approx(3e-5)
        # error + drift * age projection.
        assert ctrl.expected_error(215.0) == pytest.approx(0.02 + 3e-5 * 100.0)

    def test_entry_drift_floored(self):
        ctrl = HoldoverController(CFG)
        ctrl.note_round(200.0, sources=0, consistent=False, error=0.01, drift=0.0)
        assert ctrl.state is HoldoverState.HOLDOVER
        assert ctrl.effective_drift == CFG.drift_floor

    def test_watchdog_tick_enters_holdover_and_then_degrades(self):
        ctrl = HoldoverController(CFG)
        ctrl.tick(99.0)
        assert ctrl.state is HoldoverState.SYNCED
        ctrl.tick(101.0, error=0.05, drift=1e-5)
        assert ctrl.state is HoldoverState.HOLDOVER
        assert ctrl.transitions[-1][3] == "watchdog"
        ctrl.tick(101.0 + CFG.trust_horizon)  # not yet strictly past
        assert ctrl.state is HoldoverState.HOLDOVER
        ctrl.tick(102.0 + CFG.trust_horizon)
        assert ctrl.state is HoldoverState.DEGRADED
        assert ctrl.transitions[-1][3] == "trust_horizon"

    def test_reintegration_requires_consecutive_consistent_rounds(self):
        ctrl = HoldoverController(CFG)
        ctrl.tick(150.0, error=0.05, drift=1e-5)
        assert ctrl.state is HoldoverState.HOLDOVER
        ctrl.note_round(200.0, sources=2, consistent=True)
        assert ctrl.state is HoldoverState.REINTEGRATING
        assert ctrl.reintegration_streak == 1
        # An inconsistent round resets the streak without leaving the state.
        ctrl.note_round(230.0, sources=2, consistent=False)
        assert ctrl.state is HoldoverState.REINTEGRATING
        assert ctrl.reintegration_streak == 0
        ctrl.note_round(260.0, sources=2, consistent=True)
        ctrl.note_round(290.0, sources=2, consistent=True)
        assert ctrl.state is HoldoverState.SYNCED
        assert ctrl.transitions[-1][3] == "revalidated"
        assert ctrl.holdover_age(300.0) == 0.0
        assert ctrl.expected_error(300.0) == 0.0

    def test_flicker_keeps_original_entry_age(self):
        ctrl = HoldoverController(CFG)
        ctrl.tick(150.0, error=0.05, drift=2e-5)
        ctrl.note_round(300.0, sources=1, consistent=True)
        assert ctrl.state is HoldoverState.REINTEGRATING
        # Sources vanish again mid-revalidation: straight back to holdover,
        # with the age still measured from the *first* entry.
        ctrl.note_round(340.0, sources=0, consistent=False, error=9.0, drift=9.0)
        assert ctrl.state is HoldoverState.HOLDOVER
        assert ctrl.transitions[-1][3] == "sources_lost"
        assert ctrl.holdover_age(350.0) == pytest.approx(200.0)
        assert ctrl.effective_drift == pytest.approx(2e-5)  # not re-captured

    def test_degraded_reintegrates_too(self):
        ctrl = HoldoverController(CFG)
        ctrl.tick(150.0, error=0.05, drift=1e-5)
        ctrl.tick(800.0)
        assert ctrl.state is HoldoverState.DEGRADED
        ctrl.note_round(900.0, sources=1, consistent=True)
        assert ctrl.state is HoldoverState.REINTEGRATING
        ctrl.note_round(930.0, sources=1, consistent=True)
        assert ctrl.state is HoldoverState.SYNCED

    def test_reanchor_rebases_the_window(self):
        ctrl = HoldoverController(CFG)
        ctrl.reanchor(500.0)
        ctrl.note_round(550.0, sources=0, consistent=False)
        assert ctrl.state is HoldoverState.SYNCED  # 50 s < window
        ctrl.note_round(601.0, sources=0, consistent=False)
        assert ctrl.state is HoldoverState.HOLDOVER


# --------------------------------------------------------------------------
# SlewingClock: the rails, unit by unit
# --------------------------------------------------------------------------


def perfect_slewing(slew_rate=0.01, panic=0.5, sanity=1000.0):
    return SlewingClock(
        DriftingClock(0.0),
        slew_rate=slew_rate,
        panic_threshold=panic,
        sanity_bound=sanity,
    )


class TestSlewingClock:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slew_rate": 0.0},
            {"slew_rate": 1.0},
            {"panic_threshold": 0.0},
            {"sanity_bound": 0.4, "panic_threshold": 0.5},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SlewingClock(DriftingClock(0.0), **kwargs)

    def test_backward_correction_drains_at_slew_rate(self):
        clock = perfect_slewing(slew_rate=0.01)
        assert clock.read(0.0) == 0.0
        clock.set(0.0, -0.4)
        assert clock.slew_remaining == pytest.approx(-0.4)
        assert clock.slewing
        # After 10 s of inner progress, 0.01 * 10 = 0.1 s has drained.
        assert clock.read(10.0) == pytest.approx(10.0 - 0.1)
        # Full drain needs 0.4 / 0.01 = 40 s of inner progress.
        assert clock.read(41.0) == pytest.approx(41.0 - 0.4)
        assert not clock.slewing
        assert clock.slewed_out == pytest.approx(-0.4)
        assert clock.steps == 0

    def test_backward_slew_never_moves_the_reading_backward(self):
        clock = perfect_slewing(slew_rate=0.01)
        clock.read(0.0)
        clock.set(0.0, -5.0)  # huge, but backward: always slewed
        last = clock.read(0.001)
        for k in range(1, 2000):
            value = clock.read(k * 0.37)
            assert value >= last
            last = value

    def test_small_forward_correction_is_slewed(self):
        clock = perfect_slewing(slew_rate=0.01, panic=0.5)
        clock.read(0.0)
        clock.set(0.0, +0.3)
        assert clock.steps == 0
        assert clock.slew_remaining == pytest.approx(0.3)
        assert clock.read(10.0) == pytest.approx(10.1)

    def test_forward_panic_step_is_instant(self):
        clock = perfect_slewing(panic=0.5)
        clock.read(0.0)
        clock.set(0.0, +0.8)
        assert clock.steps == 1
        assert not clock.slewing
        assert clock.read(0.0) == pytest.approx(0.8)
        # Stepped corrections never count as slewed-out.
        assert clock.slewed_out == 0.0

    def test_insane_reset_refused_and_counted(self):
        clock = perfect_slewing(sanity=1000.0)
        clock.read(5.0)
        clock.set(5.0, 5000.0)
        assert clock.insane_resets == 1
        assert clock.steps == 0
        assert not clock.slewing
        assert clock.read(5.0) == pytest.approx(5.0)  # reading untouched
        clock.set(5.0, -2000.0)
        assert clock.insane_resets == 2

    def test_new_correction_replaces_pending(self):
        clock = perfect_slewing(slew_rate=0.01)
        clock.read(0.0)
        clock.set(0.0, -0.4)
        clock.read(10.0)  # 0.1 drained, -0.3 still pending
        # Re-target: the clock should read 9.9 - 0.1 *now*; the old
        # remainder is superseded, not added.
        clock.set(10.0, clock.read(10.0) - 0.1)
        assert clock.slew_remaining == pytest.approx(-0.1)

    def test_panic_step_discards_pending_remainder(self):
        clock = perfect_slewing(slew_rate=0.01, panic=0.5)
        clock.read(0.0)
        clock.set(0.0, -0.4)
        clock.read(10.0)  # -0.3 still pending
        target = clock.read(10.0) + 2.0
        clock.set(10.0, target)
        assert clock.steps == 1
        assert clock.slew_remaining == 0.0
        assert clock.read(10.0) == pytest.approx(target)
        assert clock.slewed_out == pytest.approx(-0.1)  # only what drained

    def test_no_inner_progress_holds_the_reading(self):
        clock = perfect_slewing()
        clock.read(3.0)
        clock.set(3.0, 2.0)
        assert clock.read(3.0) == clock.read(3.0)

    def test_rate_discipline_delegates_to_inner(self):
        inner = DisciplinedClock(DriftingClock(1e-4))
        clock = SlewingClock(inner)
        clock.read(0.0)
        applied = clock.adjust_rate(10.0, -1e-4)
        assert applied == pytest.approx(-1e-4)
        assert clock.correction == inner.correction == pytest.approx(-1e-4)
        assert clock.effective_skew(1e-4) == inner.effective_skew(1e-4)


# --------------------------------------------------------------------------
# Satellite: Hypothesis properties over the disciplined composition
# --------------------------------------------------------------------------


@st.composite
def discipline_histories(draw):
    """A raw skew plus an arbitrary interleaving of reads/resets/retunes."""
    skew = draw(st.floats(min_value=-1e-3, max_value=1e-3))
    ops = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.05, max_value=20.0),  # dt
                st.sampled_from(["read", "set", "rate"]),
                st.floats(min_value=-2.0, max_value=2.0),  # magnitude
            ),
            min_size=1,
            max_size=40,
        )
    )
    return skew, ops


class TestSlewingProperties:
    @given(discipline_histories())
    @settings(max_examples=200, deadline=None)
    def test_reads_monotone_under_any_interleaving(self, case):
        """The served reading never runs backward, whatever the servo and
        the sync rules throw at the rails (slewed backsets, forward
        steps, rate retunes) — the gauntlet's monotonicity probe, as a
        law."""
        skew, ops = case
        clock = SlewingClock(
            DisciplinedClock(DriftingClock(skew)),
            slew_rate=5e-3,
            panic_threshold=0.5,
            sanity_bound=1000.0,
        )
        t = 0.0
        last = clock.read(t)
        for dt, action, magnitude in ops:
            t += dt
            if action == "set":
                clock.set(t, clock.read(t) + magnitude)
            elif action == "rate":
                # Within DisciplinedClock's ±max_correction clamp.
                clock.adjust_rate(t, magnitude * 0.02)
            value = clock.read(t)
            assert value >= last - 1e-12
            last = value

    @given(
        delta=st.one_of(
            st.floats(min_value=0.01, max_value=0.45),
            st.floats(min_value=-5.0, max_value=-0.01),
        ),
        rate=st.floats(min_value=1e-3, max_value=0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_slew_completes_at_delta_over_rate(self, delta, rate):
        """A slewed correction of Δ drains in exactly |Δ|/slew_rate
        seconds of inner progress: still pending just before, fully
        converged just after."""
        clock = SlewingClock(
            DriftingClock(0.0), slew_rate=rate, panic_threshold=0.5
        )
        t0 = 10.0
        clock.read(t0)
        clock.set(t0, clock.read(t0) + delta)
        span = abs(delta) / rate
        assert clock.slewing
        clock.read(t0 + 0.5 * span)
        assert clock.slewing  # only half the correction has drained
        clock.read(t0 + span + 1.0)
        assert not clock.slewing
        assert clock.slewed_out == pytest.approx(delta)
        # Converged: the reading tracks inner + delta from here on.
        assert clock.read(t0 + span + 2.0) == pytest.approx(
            t0 + span + 2.0 + delta
        )


# --------------------------------------------------------------------------
# Satellite: discipline state rides the checkpoint
# --------------------------------------------------------------------------


class TestDisciplinePersistence:
    def test_encode_decode_roundtrip_is_exact(self):
        service = holdover_star(seed=3)
        service.run_until(400.0)
        server = service.servers["S2"]
        rates = server.stage(RateTrackingStage)
        discipline = server.stage(DisciplineStage)
        assert rates._estimators, "servo never observed a neighbour"
        blob = discipline._encode_discipline()
        pre_correction = server.clock.correction
        pre_obs = {
            name: [
                (o.local_time, o.offset, o.reading_error)
                for o in est._obs
            ]
            for name, est in rates._estimators.items()
        }
        pre_delta = dict(rates._remote_delta)

        # A crash loses RAM and the kernel frequency word.
        server.clock.adjust_rate(server.now, 0.0)
        rates._estimators.clear()
        rates._remote_delta.clear()

        discipline._decode_discipline(blob)
        assert server.clock.correction == pytest.approx(pre_correction, abs=0.0)
        assert set(rates._estimators) == set(pre_obs)
        for name, observations in pre_obs.items():
            restored = [
                (o.local_time, o.offset, o.reading_error)
                for o in rates._estimators[name]._obs
            ]
            assert restored == observations
        assert rates._remote_delta == pre_delta

    def test_warm_restart_restores_the_servo(self):
        service = holdover_star(seed=3)
        # The servo needs several discipline periods (4τ each) to clear
        # its own deadband; by 900 s it has stepped at least once.
        service.run_until(900.0)
        server = service.servers["S2"]
        pre = server.clock.correction
        assert pre != 0.0, "servo never converged; test setup is wrong"
        server.crash()
        service.run_until(960.0)
        report = server.restart(cold_error=5.0)
        assert report is not None and report.warm
        # The checkpointed correction is at most one checkpoint period
        # stale; a converged servo's corrections are all the same sign
        # and magnitude order.
        post = server.clock.correction
        assert post != 0.0
        assert post == pytest.approx(pre, rel=0.5, abs=1e-6)
        assert server.stage(RateTrackingStage)._estimators
        # The revived server keeps disciplining rather than relearning.
        service.run_until(1100.0)
        assert server.holdover.state is HoldoverState.SYNCED

    def test_garbled_blob_never_blocks_the_warm_restart(self):
        service = holdover_star(seed=3)
        service.run_until(400.0)
        server = service.servers["S2"]
        checkpoint = service.stable_store.read("S2")
        assert checkpoint is not None and checkpoint.discipline
        bad = dataclasses.replace(checkpoint, discipline="0.001~half:a:record")
        server.stage(DisciplineStage).restore_checkpoint(bad)
        # Fallback: servo state cleared, nothing raised.
        assert server.clock.correction == 0.0
        assert not server.stage(RateTrackingStage)._estimators
        assert not server.stage(RateTrackingStage)._remote_delta

    def test_legacy_checkpoints_decode_without_discipline(self):
        checkpoint = Checkpoint("S1", 1.0, 0.1, 0.0, 2, 7, "rep", 3, "blob")
        legacy = "|".join(checkpoint.encode().split("|")[:8])
        decoded = Checkpoint.decode(legacy)
        assert decoded.discipline == ""
        assert decoded.fault_budget == 3
        assert Checkpoint.decode(checkpoint.encode()) == checkpoint


# --------------------------------------------------------------------------
# Satellite: empty-neighbour rounds terminate
# --------------------------------------------------------------------------


def lone_hardened(config=None, **kwargs):
    engine = SimulationEngine()
    network = Network(
        engine, full_mesh(3), RngRegistry(seed=0), lan_delay=ConstantDelay(0.01)
    )
    server = TimeServer(
        engine,
        "S1",
        DriftingClock(0.0),
        1e-4,
        network,
        policy=MMPolicy(),
        # Rounds are driven by hand; park the scheduled poll far away.
        tau=1000.0,
        first_poll_at=900.0,
        initial_error=0.1,
        stages=hardening_stages(config),
        **kwargs,
    )
    network.register(server)
    server.start()
    return engine, network, server


class TestEmptyNeighbourRounds:
    def test_revive_needs_a_pollable_unsent_destination(self):
        engine, network, server = lone_hardened(HardeningConfig())
        round_ = SimpleNamespace(unsent={"S2", "S3"}, outstanding=set())
        assert server._may_revive(round_)
        server.stage(PeerHealth).of("S2").quarantined_until = engine.now + 1e9
        assert server.stage(HardeningStage)._pollable_unsent(round_) == ["S3"]
        server.stage(PeerHealth).of("S3").quarantined_until = engine.now + 1e9
        # Every unsent destination benched: no retry can produce a source.
        assert not server._may_revive(round_)
        assert not server._may_revive(
            SimpleNamespace(unsent=set(), outstanding=set())
        )

    def test_all_quarantined_round_closes_at_start(self):
        # Neighbours are unregistered, so every send is refused at send
        # time; with both also quarantined no retry could reach them.
        engine, network, server = lone_hardened(
            HardeningConfig(), round_timeout=500.0
        )
        for name in ("S2", "S3"):
            server.stage(PeerHealth).of(name).quarantined_until = engine.now + 1e9
        server._start_round()
        assert server._round.closed, "round held open with nothing to wait for"

    def test_refused_sends_exhaust_retries_without_the_timeout(self):
        engine, network, server = lone_hardened(
            HardeningConfig(retry=RetryPolicy(max_attempts=3, jitter=0.0)),
            round_timeout=500.0,
        )
        server._start_round()
        round_ = server._round
        assert not round_.closed  # pollable unsent peers keep it revivable
        # The retry schedule (0.15 s + 0.3 s, no jitter) exhausts in
        # under a second; the round must close then, not at 500 s.
        engine.run(until=engine.now + 30.0)
        assert round_.closed
        assert server.stats.polls_unsent >= 2


# --------------------------------------------------------------------------
# HoldoverStage: reset rails and degraded refusal
# --------------------------------------------------------------------------


class TestHoldoverServerRails:
    def test_requires_slewing_rails_on_the_clock(self):
        engine = SimulationEngine()
        network = Network(
            engine,
            full_mesh(2),
            RngRegistry(seed=0),
            lan_delay=ConstantDelay(0.01),
        )
        with pytest.raises(TypeError, match="slewing rails"):
            TimeServer(
                engine,
                "S1",
                DisciplinedClock(DriftingClock(0.0)),
                1e-4,
                network,
                policy=MMPolicy(),
                tau=30.0,
                stages=[
                    RateTrackingStage(),
                    StabilizingStage(StableStore()),
                    DisciplineStage(),
                    HoldoverStage(),
                ],
            )

    def test_insane_reset_refused_before_any_bookkeeping(self):
        service = holdover_star()
        service.run_until(200.0)
        server = service.servers["S2"]
        before_eps = server._epsilon
        before_resets = server.stats.resets
        before_value = server.clock_value()
        decision = ResetDecision(
            clock_value=before_value + 5000.0, inherited_error=0.01, source="X"
        )
        server._apply_reset(decision, "sync")
        assert server.holdover_stats.insane_resets == 1
        assert server.clock.insane_resets == 1
        assert server.stats.resets == before_resets  # bookkeeping skipped
        assert server._epsilon == before_eps
        assert server.clock_value() == pytest.approx(before_value, abs=1e-3)

    def test_resets_suppressed_while_not_synced(self):
        service = holdover_star()
        service.run_until(200.0)
        server = service.servers["S2"]
        server.holdover.enter_holdover(
            server.clock_value(), error=0.05, drift=1e-5, reason="test"
        )
        before = server.stats.resets
        decision = ResetDecision(
            clock_value=server.clock_value() + 0.01,
            inherited_error=0.01,
            source="S1",
        )
        server._apply_reset(decision, "sync")
        assert server.holdover_stats.suppressed_resets == 1
        assert server.stats.resets == before

    def test_slewed_adoption_widens_epsilon_by_the_pending_drain(self):
        service = holdover_star()
        service.run_until(200.0)
        server = service.servers["S2"]
        assert server.holdover.state is HoldoverState.SYNCED
        decision = ResetDecision(
            clock_value=server.clock_value() - 0.02,
            inherited_error=0.01,
            source="S1",
        )
        server._apply_reset(decision, "sync")
        pending = server.clock.slew_remaining
        assert pending != 0.0
        assert server._epsilon == pytest.approx(0.01 + abs(pending))

    def test_degraded_refuses_clients_but_answers_polls(self):
        service = holdover_star()
        service.run_until(200.0)
        server = service.servers["S2"]
        now_local = server.clock_value()
        server.holdover.enter_holdover(
            now_local, error=0.05, drift=1e-5, reason="test"
        )
        server.holdover.tick(now_local + server.holdover_config.trust_horizon + 1)
        assert server.holdover.state is HoldoverState.DEGRADED
        answered = server.stats.requests_answered
        server._answer(
            TimeRequest(
                request_id=1, origin="C9", destination="S2", kind=RequestKind.CLIENT
            )
        )
        assert server.holdover_stats.degraded_refusals == 1
        assert server.stats.requests_answered == answered
        server._answer(
            TimeRequest(
                request_id=2, origin="S1", destination="S2", kind=RequestKind.POLL
            )
        )
        assert server.holdover_stats.degraded_refusals == 1
        assert server.stats.requests_answered == answered + 1

    def test_discipline_frozen_while_not_synced(self):
        service = holdover_star()
        service.run_until(400.0)
        server = service.servers["S2"]
        server.holdover.enter_holdover(
            server.clock_value(), error=0.05, drift=1e-5, reason="test"
        )
        frozen = server.clock.correction
        adjustments = server.clock.inner.adjustments
        server.stage(DisciplineStage)._discipline_step()
        assert server.clock.correction == frozen
        assert server.clock.inner.adjustments == adjustments


# --------------------------------------------------------------------------
# Telemetry: gauges and the dashboard section
# --------------------------------------------------------------------------


class TestHoldoverTelemetry:
    def test_gauges_and_dashboard_row(self):
        telemetry = ServiceTelemetry(sample_period=30.0)
        service = holdover_star(telemetry=telemetry)
        service.run_until(150.0)
        telemetry.sampler.sample_now()
        registry = telemetry.registry
        assert registry.value("repro_holdover_state", server="S2") == float(
            HoldoverState.SYNCED
        )
        assert registry.value("repro_holdover_age_seconds", server="S2") == 0.0
        assert (
            registry.value("repro_slew_remaining_seconds", server="S2") == 0.0
        )
        frame = render_dashboard(service, telemetry)
        assert "holdover" in frame
        assert "SYNCED" in frame
        assert "slew left" in frame


# --------------------------------------------------------------------------
# The gauntlet itself (smoke cells; the full matrix is the nightly soak)
# --------------------------------------------------------------------------


class TestBlackoutGauntlet:
    def test_total_blackout_cell_passes_acceptance(self):
        cell = CELLS[2]  # total partition: everyone loses every source
        mm = run_gauntlet(cell, "mm", seed=0)
        hold = run_gauntlet(cell, "holdover", seed=0)
        assert evaluate([mm, hold]) == []
        assert hold.peak_error_blackout < mm.peak_error_blackout
        assert hold.monotonicity_violations == 0
        assert hold.violations == 0 and mm.violations == 0
        assert hold.holdover_entries >= 4  # every leaf entered holdover
        assert hold.degraded >= 1  # 600 s blackout > 450 s trust horizon
        assert hold.suppressed_resets >= 1  # staged reintegration bit
        assert hold.insane_resets == 0
        assert hold.time_to_synced > 0  # every leaf revalidated

    def test_replay_is_deterministic(self):
        first = run_gauntlet(CELLS[0], "holdover", seed=1)
        second = run_gauntlet(CELLS[0], "holdover", seed=1)
        assert first.trace_digest == second.trace_digest
        assert first == second

    def test_unknown_arm_rejected(self):
        with pytest.raises(ValueError, match="unknown arm"):
            run_gauntlet(CELLS[0], "ntp", seed=0)

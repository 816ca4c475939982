"""Integration tests for the Byzantine-tolerant server and its gauntlet.

Covers round-outcome feedback into reputation/health/census, demotion of
a live liar from the poll set, durable reputation through the PR-2
checkpoint (including the acceptance scenario: a warm-restarted server
still refuses a known liar as recovery arbiter), the stabilizer's
falseticker veto, and a fast slice of the Figure 3 liar gauntlet.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.byzantine import ByzantineStage, FaultBudgetController, ReputationConfig
from repro.core.ft_im import FTIMPolicy, FTRoundOutcome
from repro.experiments import figure3_liars
from repro.faults import FaultSchedule, attach_chaos
from repro.faults.schedule import ByzantineReplies
from repro.network.delay import UniformDelay
from repro.recovery import (
    Checkpoint,
    ConsistencyCensus,
    SelfStabilizingRecovery,
)
from repro.service.builder import ServerSpec, build_service

LIAR = "S5"
LIE_START = 120.0
LIE_DURATION = 600.0


def _liar_mesh(n=5, tau=30.0, seed=1, offset=0.4):
    """A K_n byzantine-tolerant mesh where one server lies for a window."""
    names = [f"S{k + 1}" for k in range(n)]
    graph = nx.Graph()
    graph.add_nodes_from(names)
    graph.add_edges_from(
        (a, b) for i, a in enumerate(names) for b in names[i + 1 :]
    )
    specs = [
        ServerSpec(
            name,
            delta=1e-5,
            skew=(k - n // 2) * 1e-6,
            byzantine_tolerant=True,
        )
        for k, name in enumerate(names)
    ]
    service = build_service(
        graph,
        specs,
        policy=None,
        policy_factory=lambda name: FTIMPolicy(
            fault_budget=FaultBudgetController()
        ),
        tau=tau,
        seed=seed,
        lan_delay=UniformDelay(0.02),
        recovery_factory=lambda name: SelfStabilizingRecovery(),
        trace_enabled=True,
    )
    schedule = FaultSchedule()
    schedule.add(
        ByzantineReplies(
            at=LIE_START,
            server=LIAR,
            duration=LIE_DURATION,
            offset=offset,
            error_scale=0.2,
        )
    )
    injector, monitor = attach_chaos(service, schedule)
    return service, monitor


class TestRoundFeedback:
    """Direct _on_round_outcome plumbing, no simulation needed."""

    def _server(self):
        service, _ = _liar_mesh()
        return service.servers["S1"]

    def test_falseticker_verdicts_classify_and_demote(self):
        server = self._server()
        outcome = FTRoundOutcome(
            consistent=True,
            mode="tolerant",
            n_sources=5,
            truechimers=("S2", "S3"),
            falsetickers=(LIAR,),
        )
        for _ in range(3):
            server._on_round_outcome(outcome)
        assert server.reputation.is_falseticker(LIAR)
        assert LIAR in server.falseticker_neighbours()
        # The health score quarantines faster than the EWMA classifies.
        assert any(e.neighbour == LIAR for e in server.demotion_log)
        assert server.byzantine_stats.falseticker_observations == 3
        assert server.byzantine_stats.tolerant_rounds == 3
        # Truechimer credit accrued on the honest neighbours.
        assert server.reputation.record("S2").truechimer_rounds == 3

    def test_classified_liar_widens_recovery_exclusion(self):
        server = self._server()
        outcome = FTRoundOutcome(
            consistent=True,
            mode="tolerant",
            n_sources=5,
            falsetickers=(LIAR,),
        )
        for _ in range(3):
            server._on_round_outcome(outcome)
        seen = []
        original = server.recovery.choose_arbiter

        def spy(name, neighbours, conflicting):
            seen.append(tuple(conflicting))
            return original(name, neighbours, conflicting)

        server.recovery.choose_arbiter = spy
        server._note_inconsistency(("S2",))
        assert seen, "recovery was never consulted"
        assert LIAR in seen[0]

    def test_budget_floor_follows_classified_liars_in_poll(self):
        server = self._server()
        config = ReputationConfig(min_observations=1, falseticker_below=0.9)
        server.reputation = type(server.reputation)(config)
        server.reputation.observe_falseticker(LIAR)
        assert server.reputation.is_falseticker(LIAR)
        server._poll_targets()
        assert server.budget_controller.current(9) >= 1


class TestLiveLiar:
    def test_liar_is_classified_demoted_and_tolerated(self):
        service, monitor = _liar_mesh()
        service.run_until(LIE_START + 400.0)
        honest = [service.servers[f"S{k}"] for k in (1, 2, 3, 4)]
        for server in honest:
            assert server.reputation.is_falseticker(LIAR), server.name
            assert any(
                event.neighbour == LIAR and event.at >= LIE_START
                for event in server.demotion_log
            ), server.name
        assert sum(s.byzantine_stats.tolerant_rounds for s in honest) > 0
        # The physics/sanity validators caught shrunk-error replies too.
        assert (
            sum(s.byzantine_stats.validation_rejections for s in honest) > 0
        )
        # Nobody outside the fault window went incorrect.
        assert monitor.stats.correctness_violations == 0


class TestDurableReputation:
    def test_checkpoint_extras_carry_reputation_and_budget(self):
        service, _ = _liar_mesh()
        service.run_until(LIE_START + 400.0)
        server = service.servers["S1"]
        extras = server.stage(ByzantineStage).checkpoint_fields()
        assert LIAR in extras["reputation"]
        assert extras["fault_budget"] >= 1

    def test_restore_rebuilds_tracker_and_budget(self):
        service, _ = _liar_mesh()
        server = service.servers["S1"]
        checkpoint = Checkpoint(
            server="S1",
            clock_value=100.0,
            error=0.1,
            rate_estimate=0.0,
            epoch=1,
            sequence=3,
            reputation=f"{LIAR},0.1,6,1",
            fault_budget=2,
        )
        server.stage(ByzantineStage).restore_checkpoint(checkpoint)
        assert server.reputation.is_falseticker(LIAR)
        assert server.budget_controller.value == 2

    def test_garbled_reputation_blob_starts_fresh_not_fatal(self):
        service, _ = _liar_mesh()
        server = service.servers["S1"]
        server.reputation.observe_falseticker("S3")
        checkpoint = Checkpoint(
            server="S1",
            clock_value=100.0,
            error=0.1,
            rate_estimate=0.0,
            epoch=1,
            sequence=3,
            reputation="not,a,valid",
        )
        server.stage(ByzantineStage).restore_checkpoint(checkpoint)
        assert server.reputation.falsetickers() == ()

    def test_warm_restart_still_refuses_the_known_liar_as_arbiter(self):
        """The acceptance scenario: crash an honest server after it has
        classified the liar; its warm restart must restore the verdict
        and the stabilizer must veto the liar even when the census says
        the liar looks fine."""
        service, _ = _liar_mesh()
        service.run_until(LIE_START + 300.0)
        server = service.servers["S1"]
        assert server.reputation.is_falseticker(LIAR)
        server.crash()
        service.run_until(LIE_START + 340.0)
        report = server.restart(cold_error=5.0)
        assert report is not None and report.warm
        # The durable checkpoint brought the verdict back...
        assert server.reputation.is_falseticker(LIAR)
        assert LIAR in server.falseticker_neighbours()
        # ...and arbiter choice vetoes the liar even with full census
        # support for it (gossiped verdicts can lag a live liar).  The
        # rate tracker's dissonance veto would catch S5 too; mask it so
        # this asserts the reputation veto specifically.
        server.last_merge_local = None  # bypass post-merge hysteresis
        server.dissonant_neighbours = lambda: set()
        now_local = server.clock_value()
        server.census.merge(
            [(LIAR, "S2", True, 0.0), (LIAR, "S3", True, 0.0)],
            now_local=now_local,
        )
        strategy = server.recovery
        before = strategy.stabilizer_stats.vetoed_falseticker
        arbiter = strategy.choose_arbiter(
            "S1", ["S2", "S3", "S4", LIAR], ("S2", "S3", "S4")
        )
        assert arbiter != LIAR
        assert strategy.stabilizer_stats.vetoed_falseticker > before


class _FlaggedStub:
    """The stabilizer-facing server slice, with a reputation verdict."""

    def __init__(self, flagged=()):
        self._now = 1000.0
        self.last_merge_local = None
        self.census = ConsistencyCensus(owner="G1")
        self.flagged = tuple(flagged)

    def clock_value(self):
        return self._now

    def dissonant_neighbours(self):
        return set()

    def epoch_of(self, name):
        return 0

    def falseticker_neighbours(self):
        return self.flagged


class TestStabilizerFalsetickerVeto:
    """Regression (satellite): arbiter vetting never selects a currently
    classified falseticker, even when the census majority admits it."""

    def _bound(self, flagged):
        strategy = SelfStabilizingRecovery()
        stub = _FlaggedStub(flagged)
        # Full census support for B1: two fresh ok edges.
        stub.census.merge(
            [("B1", "C", True, 0.0), ("B1", "D", True, 0.0)],
            now_local=stub.clock_value(),
        )
        strategy.bind(stub)
        return strategy

    def test_census_admitted_liar_is_vetoed(self):
        strategy = self._bound(flagged=("B1",))
        assert strategy.choose_arbiter("G1", ["B1"], ()) is None
        assert strategy.stabilizer_stats.vetoed_falseticker == 1

    def test_veto_is_load_bearing(self):
        # Identical census, no reputation verdict: B1 would be chosen.
        strategy = self._bound(flagged=())
        assert strategy.choose_arbiter("G1", ["B1"], ()) == "B1"

    def test_veto_redirects_to_clean_candidate(self):
        strategy = self._bound(flagged=("B1",))
        assert strategy.choose_arbiter("G1", ["B1", "C"], ()) == "C"


class TestFigure3Gauntlet:
    def test_ft_arm_smoke(self):
        """Short FT-arm run: no poisoned resets, tolerance active."""
        ft = figure3_liars.run("k5", True, seed=1, horizon=720.0)
        assert ft.poisoned_resets == 0
        assert ft.correctness_violations == 0
        assert ft.consistency_violations == 0
        assert ft.tolerant_rounds > 0

    @pytest.mark.byzantine
    def test_full_cell_plain_fails_ft_holds(self):
        cell = figure3_liars.run_cell("k5", seed=1)
        assert cell.plain_failed
        assert cell.ft_held
        assert cell.ft.poisoned_resets == 0
        assert cell.ft.oracle_bad_samples == 0
        assert cell.ft.all_liars_demoted
        # The plain arm really did adopt the lie somewhere.
        assert cell.plain.poisoned_resets > 0 or cell.plain.oracle_bad_samples > 0

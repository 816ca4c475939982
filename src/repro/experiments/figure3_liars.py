"""Figure 3 with liars — plain IM collapses, FT-IM holds the line.

Figure 3's lesson is that algorithm IM *fails open*: a single incorrect
reply empties the round's intersection (starvation into recovery) or, if
the lie is subtle, drags the accepted region off the true time.  The
companion thesis already holds the repair — intersect tolerating up to
``f`` faults — and this experiment is the repo's adversarial gauntlet for
the server-side version of it.

Two liars run a scripted :class:`~repro.faults.ByzantineReplies` campaign
(offset lies with underreported errors, the most attractive kind to an
interval policy) against a five-server service, on three topologies:

* ``k5`` — the acceptance matrix: every honest server hears both liars,
  ``n = 5`` sources with ``f = 2`` liars, so ``2f < n`` holds and FT-IM
  must tolerate them outright;
* ``ring`` — each honest server hears at most one liar through a
  three-source round (``f = 1`` is the connectivity ceiling);
* ``random`` — a seeded ring-plus-chords graph in between.

Each cell compares two arms:

* **plain** — the paper's servers with :class:`~repro.core.im.IMPolicy`
  and :class:`~repro.core.recovery.ThirdServerRecovery`: every window
  round starves into recovery and a randomly chosen arbiter is a liar
  often enough that some honest server adopts the lie (a *poisoned*
  reset — oracle-incorrect afterwards);
* **ft** — :class:`~repro.byzantine.server.ByzantineStage` with
  a per-server :class:`~repro.core.ft_im.FTIMPolicy` driven by the
  adaptive :class:`~repro.byzantine.budget.FaultBudgetController`: rounds
  stay tolerant, the liars are classified, demoted from the poll set and
  vetoed as recovery arbiters, and the monitor sees zero violations
  outside the scheduled lying windows.

The per-arm scorecard (poisoned resets, oracle-incorrect samples,
monitor violations, demotion latency per honest-server/liar pair) is the
experiment's artefact; :func:`run_matrix` is what ``repro figure3-liars``
and the nightly liar soak run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from ..byzantine import FaultBudgetController
from ..core.ft_im import FTIMPolicy
from ..core.im import IMPolicy
from ..core.recovery import ThirdServerRecovery
from ..faults import ByzantineReplies, FaultSchedule, attach_chaos
from ..faults.monitor import InvariantMonitor
from ..network.delay import UniformDelay
from ..recovery import SelfStabilizingRecovery
from ..service.builder import ServerSpec, build_service
from . import harness
from .scenarios import grid

#: Claimed bound for every server (~0.9 s/day).
CLAIMED_DELTA = 1e-5

#: The five servers; S4 and S5 are the scheduled liars.
NAMES = ("S1", "S2", "S3", "S4", "S5")

#: Liar campaign: value offset and error underreporting per liar.  The
#: liars *collude*: both lie in the same direction with overlapping
#: intervals, disjoint from the honest cluster.  Plain IM then starves
#: (the starvation face of Figure 3) and — the sharper failure — its
#: conflicting-pair attribution only ever flags the *larger* liar (the
#: max-trailing edge definer), so the second liar stays in the recovery
#: arbiter pool and the paper's "any third server" rule adopts the lie.
LIARS: Dict[str, float] = {"S4": +0.40, "S5": +0.33}
ERROR_SCALE = 0.2

#: Honest skews — everyone's clock is within the claim throughout; only
#: the *replies* of the liars are corrupted.
SKEWS = {"S1": +2e-6, "S2": -2e-6, "S3": +1e-6, "S4": -1e-6, "S5": +2e-6}

#: The lying window.
LIE_START = 300.0
LIE_DURATION = 600.0
LIE_END = LIE_START + LIE_DURATION

#: Poll period and run horizon (20 lying rounds, then a long clean tail
#: so redemption probing and post-window stability are visible).
TAU = 30.0
HORIZON = 1500.0

#: Slack when attributing a reset to an in-flight lie (matches the
#: monitor's default grace).
GRACE = 2.0


# ------------------------------------------------------------- topologies


def _k5() -> nx.Graph:
    return nx.complete_graph(NAMES)


def _ring() -> nx.Graph:
    graph = nx.Graph()
    graph.add_edges_from(zip(NAMES, NAMES[1:] + NAMES[:1]))
    return graph


def _random(seed: int) -> nx.Graph:
    """A seeded ring-plus-chords graph: connected, degree between the
    ring's 2 and K5's 4."""
    graph = _ring()
    rng = np.random.default_rng(seed)
    chords = [
        (a, b)
        for i, a in enumerate(NAMES)
        for b in NAMES[i + 1 :]
        if not graph.has_edge(a, b)
    ]
    for index in rng.choice(len(chords), size=2, replace=False):
        graph.add_edge(*chords[int(index)])
    return graph


def topology(name: str, seed: int) -> nx.Graph:
    """The named gauntlet topology (``k5``, ``ring`` or ``random``)."""
    if name == "k5":
        return _k5()
    if name == "ring":
        return _ring()
    if name == "random":
        return _random(seed)
    raise ValueError(f"unknown topology {name!r}")


def _liar_schedule() -> FaultSchedule:
    schedule = FaultSchedule()
    for liar, offset in LIARS.items():
        schedule.add(
            ByzantineReplies(
                at=LIE_START,
                server=liar,
                duration=LIE_DURATION,
                offset=offset,
                error_scale=ERROR_SCALE,
            )
        )
    return schedule


# ------------------------------------------------------------------ arms


@dataclass(frozen=True)
class DemotionRecord:
    """One honest-server/liar-neighbour pair's demotion outcome.

    Attributes:
        server: The honest server doing the demoting.
        liar: The lying neighbour.
        latency: Seconds from the lying window opening to the liar's
            first demotion from ``server``'s poll set; None if it was
            never demoted.
    """

    server: str
    liar: str
    latency: Optional[float]

    @property
    def demoted_in_window(self) -> bool:
        return self.latency is not None and self.latency <= LIE_DURATION


@dataclass(frozen=True)
class ArmResult:
    """One arm of one gauntlet cell, scored.

    Attributes:
        byzantine_tolerant: Which arm this is.
        total_resets: All resets over the run (direct and recovery).
        poisoned_resets: Resets on an *honest* server sourced (even
            partially) from a liar during the lying window — adopting
            the lie.
        recoveries: Recovery resets only.
        oracle_bad_samples: Sampled (time, honest server) pairs from the
            window start onward whose interval missed true time — the
            oracle's count of how wrong the service actually went.
        correctness_violations: Monitor correctness breaches outside
            fault windows and taint.
        consistency_violations: Same, for pairwise consistency.
        demotions: FT arm: one :class:`DemotionRecord` per honest
            server/liar-neighbour pair (empty for the plain arm).
        all_liars_demoted: FT arm: every pair demoted before the lying
            window closed; None for the plain arm.
        tolerant_rounds: FT arm: rounds accepted via a fault-tolerant
            intersection.
        plain_rounds: FT arm: rounds that fell back to plain IM-2.
        budget_raises: FT arm: adaptive budget step-ups across servers.
        validation_rejections: FT arm: replies rejected by the sanity or
            error-physics checks.
    """

    byzantine_tolerant: bool
    total_resets: int
    poisoned_resets: int
    recoveries: int
    oracle_bad_samples: int
    correctness_violations: int
    consistency_violations: int
    demotions: Tuple[DemotionRecord, ...]
    all_liars_demoted: Optional[bool]
    tolerant_rounds: int
    plain_rounds: int
    budget_raises: int
    validation_rejections: int


def _poisoned_resets(service, honest: set) -> Tuple[int, int, int]:
    """(total, recovery, poisoned) reset counts from the trace."""
    rows = service.trace.filter(kind="reset")
    recoveries = sum(
        1 for row in rows if row.data.get("reset_kind") == "recovery"
    )
    poisoned = 0
    for row in rows:
        if row.source not in honest:
            continue
        if not (LIE_START <= row.time <= LIE_END + GRACE):
            continue
        sources = InvariantMonitor.reset_sources(
            row.data.get("from_server", "")
        )
        if any(source in LIARS for source in sources):
            poisoned += 1
    return len(rows), recoveries, poisoned


def run(
    topology_name: str,
    byzantine_tolerant: bool,
    seed: int,
    tau: float = TAU,
    horizon: float = HORIZON,
) -> ArmResult:
    """Run one arm of one gauntlet cell."""
    graph = topology(topology_name, seed)
    specs = [
        ServerSpec(
            name,
            delta=CLAIMED_DELTA,
            skew=SKEWS[name],
            byzantine_tolerant=byzantine_tolerant,
        )
        for name in NAMES
    ]
    if byzantine_tolerant:
        policy = None
        policy_factory = lambda name: FTIMPolicy(  # noqa: E731
            fault_budget=FaultBudgetController()
        )
        # Deterministic arbiter choice: ties resolve to the first vetted
        # candidate, and the falseticker veto does the heavy lifting.
        recovery_factory = lambda name: SelfStabilizingRecovery()  # noqa: E731
    else:
        policy = IMPolicy()
        policy_factory = None
        # The paper's "any third server": random choice among the
        # candidates, which is exactly how a liar gets adopted.
        recovery_factory = lambda name: ThirdServerRecovery(  # noqa: E731
            rng=np.random.default_rng((seed, NAMES.index(name)))
        )
    service = build_service(
        graph,
        specs,
        policy=policy,
        policy_factory=policy_factory,
        tau=tau,
        seed=seed,
        lan_delay=UniformDelay(0.02),
        recovery_factory=recovery_factory,
        trace_enabled=True,
    )
    schedule = _liar_schedule()
    injector, monitor = attach_chaos(service, schedule)

    honest = {name for name in NAMES if name not in LIARS}
    oracle_bad = 0
    for t in grid(0.0, horizon, int(horizon / tau) + 1):
        service.run_until(t)
        snapshot = service.snapshot()
        if t >= LIE_START:
            oracle_bad += sum(
                1 for name in honest if not snapshot.correct[name]
            )

    total, recoveries, poisoned = _poisoned_resets(service, honest)

    demotions: List[DemotionRecord] = []
    all_demoted: Optional[bool] = None
    tolerant_rounds = plain_rounds = raises = rejections = 0
    if byzantine_tolerant:
        for name in sorted(honest):
            server = service.servers[name]
            stats = server.byzantine_stats
            tolerant_rounds += stats.tolerant_rounds
            plain_rounds += stats.plain_rounds
            rejections += stats.validation_rejections
            if server.budget_controller is not None:
                raises += server.budget_controller.stats.raises
            for liar in sorted(LIARS):
                if not graph.has_edge(name, liar):
                    continue
                events = [
                    event
                    for event in server.demotion_log
                    if event.neighbour == liar and event.at >= LIE_START
                ]
                latency = events[0].at - LIE_START if events else None
                demotions.append(DemotionRecord(name, liar, latency))
        all_demoted = all(record.demoted_in_window for record in demotions)

    return ArmResult(
        byzantine_tolerant=byzantine_tolerant,
        total_resets=total,
        poisoned_resets=poisoned,
        recoveries=recoveries,
        oracle_bad_samples=oracle_bad,
        correctness_violations=monitor.stats.correctness_violations,
        consistency_violations=monitor.stats.consistency_violations,
        demotions=tuple(demotions),
        all_liars_demoted=all_demoted,
        tolerant_rounds=tolerant_rounds,
        plain_rounds=plain_rounds,
        budget_raises=raises,
        validation_rejections=rejections,
    )


# ------------------------------------------------------------- comparison


@dataclass(frozen=True)
class GauntletCell:
    """Both arms on one (topology, seed) cell, with the verdicts.

    Attributes:
        topology: The topology name.
        seed: The cell's root seed.
        plain: The paper's IM + third-server rule.
        ft: The Byzantine-tolerance subsystem.
        plain_failed: The plain arm showed at least one poisoned reset,
            oracle-incorrect sample, or monitor correctness breach —
            Figure 3's failure reproduced.
        ft_held: The FT arm showed none of those, zero consistency
            breaches, and demoted every adjacent liar before the lying
            window closed.
    """

    topology: str
    seed: int
    plain: ArmResult
    ft: ArmResult
    plain_failed: bool
    ft_held: bool


def run_cell(
    topology_name: str,
    seed: int,
    tau: float = TAU,
    horizon: float = HORIZON,
) -> GauntletCell:
    """Run both arms on one (topology, seed) cell."""
    plain = run(topology_name, False, seed, tau=tau, horizon=horizon)
    ft = run(topology_name, True, seed, tau=tau, horizon=horizon)
    plain_failed = (
        plain.poisoned_resets > 0
        or plain.oracle_bad_samples > 0
        or plain.correctness_violations > 0
    )
    ft_held = (
        ft.poisoned_resets == 0
        and ft.oracle_bad_samples == 0
        and ft.correctness_violations == 0
        and ft.consistency_violations == 0
        and bool(ft.all_liars_demoted)
    )
    return GauntletCell(
        topology=topology_name,
        seed=seed,
        plain=plain,
        ft=ft,
        plain_failed=plain_failed,
        ft_held=ft_held,
    )


@dataclass(frozen=True)
class GauntletMatrix:
    """The whole gauntlet: K5 across seeds plus the topology sweep.

    Attributes:
        k5: One cell per seed on the complete graph — the acceptance
            rows (``2f < n`` holds for every honest server).
        ring: One cell at the connectivity boundary (three-source
            rounds; reported, not part of acceptance).
        random: One seeded in-between cell (same status).
        accepted: Every K5 cell reproduced the plain failure *and* held
            under FT — the experiment's overall verdict.
    """

    k5: Tuple[GauntletCell, ...]
    ring: GauntletCell
    random: GauntletCell
    accepted: bool


def run_matrix(
    seeds: Tuple[int, ...] = (1, 2, 3, 4, 5),
    tau: float = TAU,
    horizon: float = HORIZON,
) -> GauntletMatrix:
    """Run the full gauntlet matrix."""
    k5 = tuple(run_cell("k5", seed, tau=tau, horizon=horizon) for seed in seeds)
    ring = run_cell("ring", seeds[0], tau=tau, horizon=horizon)
    random_cell = run_cell("random", seeds[0], tau=tau, horizon=horizon)
    return GauntletMatrix(
        k5=k5,
        ring=ring,
        random=random_cell,
        accepted=all(cell.plain_failed and cell.ft_held for cell in k5),
    )


# ------------------------------------------------------------- reporting


def report_dict(matrix: GauntletMatrix) -> dict:
    """A JSON-ready artefact of the whole gauntlet (for CI uploads)."""

    def cell(row: GauntletCell) -> dict:
        payload = asdict(row)
        # The plain arm has no FT machinery to report on.
        for name in (
            "tolerant_rounds",
            "plain_rounds",
            "budget_raises",
            "validation_rejections",
            "all_liars_demoted",
            "demotions",
        ):
            del payload["plain"][name]
        return payload

    return {
        "accepted": matrix.accepted,
        "k5": [cell(row) for row in matrix.k5],
        "ring": cell(matrix.ring),
        "random": cell(matrix.random),
    }


def _print_cell(row: GauntletCell) -> None:
    print(f"\n  [{row.topology} seed={row.seed}]")
    for result in (row.plain, row.ft):
        arm = "ft" if result.byzantine_tolerant else "plain"
        print(
            f"    {arm:>5}: poisoned_resets={result.poisoned_resets} "
            f"oracle_bad={result.oracle_bad_samples} "
            f"monitor=({result.correctness_violations} correctness, "
            f"{result.consistency_violations} consistency) "
            f"resets={result.total_resets} "
            f"(recovery {result.recoveries})"
        )
        if result.byzantine_tolerant:
            latencies = [
                record.latency
                for record in result.demotions
                if record.latency is not None
            ]
            worst = f"{max(latencies):.0f}s" if latencies else "n/a"
            print(
                f"           rounds: {result.tolerant_rounds} tolerant / "
                f"{result.plain_rounds} plain, budget raises "
                f"{result.budget_raises}, reply rejections "
                f"{result.validation_rejections}"
            )
            print(
                f"           liars demoted in window: "
                f"{result.all_liars_demoted} "
                f"(worst latency {worst})"
            )
    print(
        f"    verdict: plain_failed={row.plain_failed} ft_held={row.ft_held}"
    )


def main(json_path: Optional[str] = None) -> bool:
    """Print the gauntlet matrix (and optionally write the JSON artefact).

    Returns the overall acceptance verdict so the CLI can exit non-zero
    when a cell regresses.
    """
    matrix = run_matrix()
    print(
        "Figure 3 liar gauntlet — plain IM vs FT-IM under a scripted "
        f"Byzantine campaign ({len(LIARS)} liars, window "
        f"[{LIE_START:.0f}s, {LIE_END:.0f}s])"
    )
    for row in matrix.k5:
        _print_cell(row)
    _print_cell(matrix.ring)
    _print_cell(matrix.random)
    print(f"\n  accepted (all K5 cells): {matrix.accepted}")
    harness.write_report(json_path, report_dict(matrix))
    return matrix.accepted


EXPERIMENTS = (
    harness.Experiment(
        "figure3-liars",
        "Byzantine liar gauntlet: plain IM vs FT-IM across topologies",
        main,
        harness.JSON,
    ),
)

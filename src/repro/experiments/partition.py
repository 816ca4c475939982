"""Section 5 / Figure 4 genesis — recovery breakdown and consistency groups.

"This recovery algorithm can break down as soon as there is more than one
incorrect server directly connected to a server.  In this case, the service
can partition into different consistency groups (Figure 4)."

Reproduction: server G1 is directly connected to *two* racing clocks (B1,
B2, fast/slow at rates far beyond their claimed bounds and mutually
inconsistent), plus one good neighbour G2; the good core G2–G3–G4 is a
triangle.  When G1 finds itself inconsistent with B1, the third-server rule
picks an arbiter that is "any third server" — and with two bad neighbours
the arbiter can be B2, so G1 adopts a racing clock's time and is torn away
from the good core.  The service ends partitioned into multiple
consistency groups: the dynamic route into the Figure 4 state.

The experiment also runs Section 5's proposed diagnosis: apply the interval
machinery to clock *rates*.  Pairwise separation rates are measured from
the run; servers outside the largest mutually-*consonant* clique are the
suspects — and they turn out to be exactly the racing clocks, even though
point-in-time consistency could not tell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import networkx as nx

from ..analysis.consistency_graph import ConsistencyGroup, consistency_groups
from ..core.consonance import consonant
from ..core.mm import MMPolicy
from ..core.recovery import ThirdServerRecovery
from ..network.delay import UniformDelay
from ..service.builder import ServerSpec, build_service
from .scenarios import grid

#: Claimed bound for every server (~0.9 s/day).
CLAIMED_DELTA = 1e-5

#: Actual skews.  B1/B2 race far beyond the claim, at different rates, so
#: they are inconsistent with everyone *including each other*.
SKEWS = {
    "B1": +5e-3,
    "B2": -4e-3,
    "G1": +2e-6,
    "G2": -2e-6,
    "G3": 0.0,
    "G4": +1e-6,
}


def _breakdown_topology() -> nx.Graph:
    """G1 adjacent to both bad servers; good core is a triangle."""
    graph = nx.Graph()
    graph.add_edges_from(
        [
            ("G1", "B1"),
            ("G1", "B2"),
            ("G1", "G2"),
            ("G2", "G3"),
            ("G3", "G4"),
            ("G2", "G4"),
        ]
    )
    return graph


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of the breakdown scenario.

    Attributes:
        groups: Final consistency groups (more than one == partitioned).
        partitioned: Whether the Figure 4 state was reached.
        poisoned_recoveries: Recovery resets whose arbiter was a bad server.
        total_recoveries: All recovery resets.
        g1_final_offset: |C_G1 - t| at the end — how far the poisoned
            server was dragged.
        core_still_correct: Oracle — the untouched core (G2–G4) stayed
            correct.
        suspects: Servers outside the largest consonant clique (Section 5's
            rate-domain diagnosis).
        diagnosis_correct: Whether the suspects include every racing clock
            and exclude the untouched good core.
    """

    groups: List[ConsistencyGroup]
    partitioned: bool
    poisoned_recoveries: int
    total_recoveries: int
    g1_final_offset: float
    core_still_correct: bool
    suspects: List[str]
    diagnosis_correct: bool


def run(
    tau: float = 120.0,
    horizon: float = 2.0 * 3600.0,
    seed: int = 13,
    rate_tracking: bool = False,
) -> PartitionResult:
    """Run the two-bad-neighbours breakdown.

    Args:
        rate_tracking: Attach :class:`~repro.service.rate_tracking.
            RateTrackingStage`s, which exclude provably-dissonant
            neighbours from the recovery arbiter pool — the Section 5 fix.
            With it on, the poisoned-recovery count drops to (near) zero
            and the good servers stay in one consistency group.
    """
    names = sorted(SKEWS)
    specs = [
        ServerSpec(
            name,
            delta=CLAIMED_DELTA,
            skew=SKEWS[name],
            rate_tracking=rate_tracking,
        )
        for name in names
    ]
    service = build_service(
        _breakdown_topology(),
        specs,
        policy=MMPolicy(),
        tau=tau,
        seed=seed,
        lan_delay=UniformDelay(0.02),
        recovery_factory=lambda name: ThirdServerRecovery(),
        trace_enabled=True,
    )
    snapshots = service.sample(grid(0.0, horizon, 120))
    final = snapshots[-1]
    groups = consistency_groups(final.intervals())

    recoveries = service.trace.filter(
        kind="reset",
        predicate=lambda row: row.data.get("reset_kind") == "recovery",
    )
    bad = {"B1", "B2"}
    poisoned = sum(
        1
        for row in recoveries
        if row.data.get("from_server", "").removeprefix("recovery:") in bad
    )

    # Section 5 diagnosis: pairwise separation rates over the run, then the
    # largest mutually-consonant clique.  Rates are fit over the final
    # quarter of the horizon (after the transient) from snapshot values.
    window = snapshots[len(snapshots) * 3 // 4 :]
    span = window[-1].time - window[0].time
    rate: Dict[tuple[str, str], float] = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            d_last = window[-1].values[a] - window[-1].values[b]
            d_first = window[0].values[a] - window[0].values[b]
            rate[(a, b)] = (d_last - d_first) / span
    cons_graph = nx.Graph()
    cons_graph.add_nodes_from(names)
    for (a, b), r in rate.items():
        if consonant(r, CLAIMED_DELTA, CLAIMED_DELTA):
            cons_graph.add_edge(a, b)
    cliques = sorted(nx.find_cliques(cons_graph), key=len, reverse=True)
    largest = set(cliques[0]) if cliques else set()
    suspects = sorted(set(names) - largest)

    core = {"G2", "G3", "G4"}
    return PartitionResult(
        groups=groups,
        partitioned=len(groups) > 1,
        poisoned_recoveries=poisoned,
        total_recoveries=len(recoveries),
        g1_final_offset=abs(final.offsets["G1"]),
        core_still_correct=all(final.correct[name] for name in core),
        suspects=suspects,
        diagnosis_correct=bad <= set(suspects) and not (core & set(suspects)),
    )


@dataclass(frozen=True)
class RateTrackingComparison:
    """The Section 5 fix, measured.

    Attributes:
        without: The breakdown with plain servers.
        with_tracking: The same scenario with rate-tracking servers.
        poisoning_eliminated: Whether rate tracking removed (almost) all
            poisoned recoveries.
        g1_rescued: Whether G1's final offset improved by at least 10×.
    """

    without: PartitionResult
    with_tracking: PartitionResult
    poisoning_eliminated: bool
    g1_rescued: bool


def run_comparison(
    tau: float = 120.0, horizon: float = 2.0 * 3600.0, seed: int = 13
) -> RateTrackingComparison:
    """Run the breakdown with and without Section 5 rate tracking."""
    without = run(tau=tau, horizon=horizon, seed=seed, rate_tracking=False)
    with_tracking = run(tau=tau, horizon=horizon, seed=seed, rate_tracking=True)
    return RateTrackingComparison(
        without=without,
        with_tracking=with_tracking,
        poisoning_eliminated=(
            with_tracking.poisoned_recoveries
            <= max(1, without.poisoned_recoveries // 20)
        ),
        g1_rescued=(
            with_tracking.g1_final_offset < without.g1_final_offset / 10.0
        ),
    )


def main() -> None:
    """Print the breakdown outcome."""
    result = run()
    print("Section 5 — recovery breakdown with two bad neighbours of G1")
    print(f"  final consistency groups: {len(result.groups)}")
    for group in result.groups:
        print(f"    {{{', '.join(group.members)}}}  ∩ = {group.intersection}")
    print(f"  partitioned (Figure 4 state): {result.partitioned}")
    print(
        f"  recoveries: {result.total_recoveries} "
        f"(poisoned by a bad arbiter: {result.poisoned_recoveries})"
    )
    print(f"  G1 dragged to offset {result.g1_final_offset:.3f} s; "
          f"good core still correct: {result.core_still_correct}")
    print(f"  consonance suspects: {result.suspects} "
          f"(diagnosis correct: {result.diagnosis_correct})")

    comparison = run_comparison()
    print("\nWith Section 5 rate tracking (dissonant arbiters excluded):")
    print(
        f"  poisoned recoveries: {comparison.without.poisoned_recoveries} "
        f"-> {comparison.with_tracking.poisoned_recoveries}"
    )
    print(
        f"  G1 final offset:     {comparison.without.g1_final_offset:.3f} s "
        f"-> {comparison.with_tracking.g1_final_offset:.3f} s"
    )


if __name__ == "__main__":
    main()

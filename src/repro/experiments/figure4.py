"""Figure 4 — An Inconsistent Time Service.

Six servers whose intervals no longer share a common point: the service has
split into *three* consistency groups (maximal sets of mutually consistent
servers), with overlapping membership, and "it is not apparent which set of
servers (if any) is the correct one" — consistency is not transitive, so
majority voting over pairwise checks is unsound.

The reproduction builds the six intervals, extracts the maximal-clique
consistency groups and their intersections (the figure's shaded areas), and
demonstrates the ambiguity: exactly one group contains the true time, but
nothing observable distinguishes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.consistency_graph import (
    ConsistencyGroup,
    consistency_groups,
    correct_groups,
)
from ..analysis.plots import render_intervals
from ..core.intervals import TimeInterval, intersect_all

#: The figure's true time (the dashed line).
TRUE_TIME = 103.5

#: Six intervals arranged into three overlapping consistency groups:
#: {S1,S2,S3}, {S3,S4}, {S4,S5,S6}.
FIGURE4_INTERVALS: Dict[str, TimeInterval] = {
    "S1": TimeInterval(100.0, 104.0),
    "S2": TimeInterval(101.0, 105.0),
    "S3": TimeInterval(103.0, 108.0),
    "S4": TimeInterval(107.0, 110.0),
    "S5": TimeInterval(109.0, 112.0),
    "S6": TimeInterval(109.5, 112.5),
}


@dataclass(frozen=True)
class Figure4Result:
    """The reproduced inconsistent state.

    Attributes:
        intervals: The six drawn intervals.
        globally_consistent: Whether all six share a point (they must not).
        groups: The maximal consistency groups, largest first.
        correct: The group(s) whose intersection contains the true time
            (oracle — the algorithms cannot see this).
        diagram: ASCII rendering with the shaded intersections appended.
    """

    intervals: Dict[str, TimeInterval]
    globally_consistent: bool
    groups: List[ConsistencyGroup]
    correct: List[ConsistencyGroup]
    diagram: str


def run(intervals: Dict[str, TimeInterval] | None = None) -> Figure4Result:
    """Extract the consistency-group structure of the Figure 4 state."""
    if intervals is None:
        intervals = FIGURE4_INTERVALS
    groups = consistency_groups(intervals)
    shown = dict(intervals)
    for index, group in enumerate(groups):
        shown[f"∩{index + 1}"] = group.intersection
    return Figure4Result(
        intervals=intervals,
        globally_consistent=intersect_all(intervals.values()) is not None,
        groups=groups,
        correct=correct_groups(intervals, TRUE_TIME),
        diagram=render_intervals(shown, true_time=TRUE_TIME),
    )


def main() -> None:
    """Print the reproduced figure and its group structure."""
    result = run()
    print("Figure 4 — An Inconsistent Time Service")
    print(result.diagram)
    print(f"\nglobally consistent: {result.globally_consistent}")
    print(f"partitioned into {len(result.groups)} consistency groups:")
    for group in result.groups:
        marker = " <- contains true time" if group in result.correct else ""
        print(
            f"  {{{', '.join(group.members)}}}"
            f"  ∩ = {group.intersection}{marker}"
        )
    print(
        "\nWithout the oracle the groups are indistinguishable — the "
        "paper's motivation for examining clock *rates* (consonance)."
    )


if __name__ == "__main__":
    main()

"""Consistency graphs and consistency groups (Section 5, Figure 4).

When drift bounds are invalid the service can become globally inconsistent
while remaining *locally* consistent in patches: Figure 4 shows a six-server
service split into three "consistency groups" whose pairwise intersections
are non-empty within each group.  Because the consistency relation is not
transitive, recovering from this state is genuinely ambiguous — "it is not
apparent which set of servers (if any) is the correct one."

This module materialises that structure:

* :func:`consistency_graph` — nodes are servers, edges join consistent
  pairs.
* :func:`consistency_groups` — the maximal cliques of that graph with each
  group's common intersection.  (For 1-D intervals, a clique's pairwise
  overlaps imply a common point by Helly's theorem, so every maximal clique
  really is a candidate "correct" group.)
* :func:`largest_group` / :func:`group_of` — conveniences for recovery
  policies and the partition experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

import networkx as nx

from ..core.intervals import TimeInterval, intersect_all


def consistency_graph(intervals: Dict[str, TimeInterval]) -> nx.Graph:
    """Build the graph whose edges join pairwise-consistent servers."""
    graph = nx.Graph()
    names = sorted(intervals)
    graph.add_nodes_from(names)
    for index, a in enumerate(names):
        for b in names[index + 1 :]:
            if intervals[a].intersects(intervals[b]):
                graph.add_edge(a, b)
    return graph


@dataclass(frozen=True)
class ConsistencyGroup:
    """A maximal mutually-consistent set of servers.

    Attributes:
        members: Server names (sorted tuple).
        intersection: The group's common interval — the shaded region of
            Figure 4.
    """

    members: tuple[str, ...]
    intersection: TimeInterval

    @property
    def size(self) -> int:
        """Number of member servers."""
        return len(self.members)


def consistency_groups(
    intervals: Dict[str, TimeInterval]
) -> List[ConsistencyGroup]:
    """All maximal consistency groups, largest first (ties: lexicographic).

    A globally consistent service yields exactly one group containing every
    server; the Figure 4 state yields its three overlapping groups.
    """
    graph = consistency_graph(intervals)
    groups = []
    for clique in nx.find_cliques(graph):
        members = tuple(sorted(clique))
        common = intersect_all(intervals[name] for name in members)
        # A clique of pairwise-intersecting 1-D intervals always has a
        # common point (Helly), so `common` cannot be None.
        assert common is not None
        groups.append(ConsistencyGroup(members=members, intersection=common))
    groups.sort(key=lambda group: (-group.size, group.members))
    return groups


def largest_group(intervals: Dict[str, TimeInterval]) -> ConsistencyGroup:
    """The biggest consistency group (the majority-ish candidate).

    Raises:
        ValueError: On an empty service.
    """
    groups = consistency_groups(intervals)
    if not groups:
        raise ValueError("no servers, no consistency groups")
    return groups[0]


def group_of(
    intervals: Dict[str, TimeInterval], name: str
) -> List[ConsistencyGroup]:
    """The groups containing a given server (a server can be in several)."""
    return [
        group for group in consistency_groups(intervals) if name in group.members
    ]


def is_partitioned(intervals: Dict[str, TimeInterval]) -> bool:
    """Whether the service has split into more than one consistency group."""
    return len(consistency_groups(intervals)) > 1


def groups_from_verdicts(
    nodes: Iterable[str], edges: Iterable[tuple[str, str]]
) -> List[tuple[str, ...]]:
    """Consistency groups from *pairwise verdicts* instead of intervals.

    The live census (:mod:`repro.recovery.census`) knows booleans, not
    intervals, so there is no Helly intersection to report — just the
    maximal cliques of the verdict graph.  Sorted largest-first with
    lexicographic ties, matching :func:`consistency_groups`.

    Args:
        nodes: Every server that should appear (isolated ones become
            singleton groups).
        edges: The pairs judged consistent.
    """
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    groups = [tuple(sorted(clique)) for clique in nx.find_cliques(graph)]
    groups.sort(key=lambda members: (-len(members), members))
    return groups


def correct_groups(
    intervals: Dict[str, TimeInterval], true_time: float
) -> List[ConsistencyGroup]:
    """Oracle: the groups whose intersection contains the true time.

    The paper's point is that *without* the oracle these are
    indistinguishable from the incorrect groups; experiments use this to
    score recovery policies.
    """
    return [
        group
        for group in consistency_groups(intervals)
        if group.intersection.contains(true_time)
    ]

"""Live topology mutation — Section 1.1's unstable membership, literally.

The paper assumes "a graph in which time servers are nodes and
communication paths are edges" that is fixed between discrete failures.
Section 1.1's caveat — "the set of servers making up the service is not
stable" — really means the graph itself never stops changing: servers
join and leave, links appear and disappear, and in an ad hoc setting
(Pabico, PAPERS.md) edges follow physical proximity.

:class:`DynamicTopology` makes the graph a first-class mutable object:
a thin policy layer over :class:`~repro.network.transport.Network`'s raw
edge mutation that

* keeps the *present* servers connected (a guard refuses removals that
  would disconnect them, mirroring the paper's standing assumption);
* re-runs :func:`~repro.network.topology.validate_topology` after every
  change, so a transiently disconnected state fails loudly with the
  isolated component named;
* notifies both endpoints of a removed edge via
  :meth:`~repro.service.server.TimeServer.neighbour_detached`, so a
  server whose neighbour vanished between request and reply prunes the
  pending slot instead of waiting out the round timeout;
* records every mutation in the simulation trace, so dynamic runs stay
  digest-deterministic.

Drivers sit on top: :class:`~repro.dynamic.churn.EdgeChurnController`
(continuous seeded churn), :class:`~repro.dynamic.mobility.MobilityProcess`
(waypoint proximity rewiring), and the
:class:`~repro.faults.schedule.EdgeChurn` /
:class:`~repro.faults.schedule.TopologyRewire` /
:class:`~repro.faults.schedule.MobilityTrace` schedule events interpreted
by the fault injector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

import networkx as nx

from ..network.topology import validate_topology
from ..network.transport import Network

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..service.builder import SimulatedService
    from ..service.server import TimeServer
    from .mobility import WaypointMobility


Edge = Tuple[str, str]


def _norm(a: str, b: str) -> Edge:
    """Canonical (lexicographic) form of an undirected edge."""
    return (a, b) if a <= b else (b, a)


@dataclass
class DynamicTopologyStats:
    """Counters for live topology activity.

    Attributes:
        edges_added: Edges created (including churned edges restored).
        edges_removed: Edges removed.
        removals_refused: Removals the connectivity guard vetoed.
        rewires: Wholesale edge-set replacements executed.
        leaves: Node departures executed.
        leaves_refused: Departures vetoed (the node was a cut vertex).
        joins: Node rejoins executed.
    """

    edges_added: int = 0
    edges_removed: int = 0
    removals_refused: int = 0
    rewires: int = 0
    leaves: int = 0
    leaves_refused: int = 0
    joins: int = 0


class DynamicTopology:
    """Mutable-graph policy layer over a :class:`Network`.

    Args:
        network: The live transport whose graph is mutated.
        servers: Name → server map used for the present-set computation
            and for mid-round pruning notifications; may be empty (pure
            graph manipulation, e.g. in unit tests).
        trace: Optional :class:`~repro.simulation.trace.TraceRecorder`;
            every mutation is recorded under source ``"topology"`` so the
            run digest covers the topology history.
        guard_connectivity: Refuse edge removals / node departures that
            would disconnect the present servers (the paper's standing
            assumption).  Disable only to exercise the validator.
        validate: Re-run :func:`validate_topology` (restricted to present
            servers) after every mutation; a violation raises ``ValueError``
            naming the isolated component.
    """

    def __init__(
        self,
        network: Network,
        servers: Optional[Mapping[str, TimeServer]] = None,
        *,
        trace=None,
        guard_connectivity: bool = True,
        validate: bool = True,
    ) -> None:
        self.network = network
        self._servers: Dict[str, TimeServer] = dict(servers or {})
        self.trace = trace
        self.guard_connectivity = guard_connectivity
        self.validate = validate
        self.mobility: Optional[WaypointMobility] = None
        self.stats = DynamicTopologyStats()
        # Edges stashed per departed node, restored on join.
        self._detached_edges: Dict[str, List[Tuple[str, str, dict]]] = {}

    @classmethod
    def for_service(cls, service: SimulatedService, **kwargs) -> DynamicTopology:
        """Wrap a built service's network, servers, and trace."""
        return cls(
            service.network, service.servers, trace=service.trace, **kwargs
        )

    # ------------------------------------------------------------- queries

    def present(self) -> List[str]:
        """Topology nodes whose server (if any is bound) has not departed."""
        names = []
        for name in self.network.graph.nodes:
            server = self._servers.get(name)
            if server is None or not server.departed:
                names.append(name)
        return sorted(names)

    def edges(self) -> List[Edge]:
        """The live edge set in canonical sorted form."""
        return sorted(_norm(a, b) for a, b in self.network.graph.edges)

    def check(self) -> None:
        """Validate the current graph (present servers must be connected).

        Raises:
            ValueError: Naming the isolated component when disconnected.
        """
        validate_topology(self.network.graph, present=self.present())

    # ----------------------------------------------------------- mutations

    def add_edge(self, a: str, b: str, *, kind: Optional[str] = None) -> bool:
        """Create edge ``(a, b)``; returns whether the graph changed."""
        if self.network.graph.has_edge(a, b):
            return False
        self.network.add_edge(a, b, kind=kind)
        self.stats.edges_added += 1
        self._record("edge_add", a=a, b=b)
        self._validate()
        return True

    def remove_edge(self, a: str, b: str, *, force: bool = False) -> bool:
        """Remove edge ``(a, b)``; returns whether the graph changed.

        The connectivity guard refuses (returns False) when the removal
        would disconnect the present servers.  ``force=True`` bypasses
        the guard — the subsequent validation then raises, naming the
        isolated component (use this to exercise the validator, with
        ``validate`` off to genuinely break the graph).
        """
        if not self.network.graph.has_edge(a, b):
            return False
        if not force and self.guard_connectivity and self._would_disconnect(a, b):
            self.stats.removals_refused += 1
            self._record("edge_remove_refused", a=a, b=b)
            return False
        self.network.remove_edge(a, b)
        self.stats.edges_removed += 1
        self._record("edge_remove", a=a, b=b)
        self._notify_detached(a, b)
        self._validate()
        return True

    def rewire(self, edges: Iterable[Edge]) -> int:
        """Replace the live edge set with ``edges``; returns changes made.

        Additions happen before removals so the connectivity guard sees
        the new edges when judging the old ones; removals the guard
        refuses stay — a minimal backbone of stale edges survives rather
        than disconnecting the service (an operator keeping a long-haul
        link up until the mesh re-forms).
        """
        graph = self.network.graph
        desired = {
            _norm(a, b)
            for a, b in edges
            if a != b and a in graph and b in graph
        }
        current = {_norm(a, b) for a, b in graph.edges}
        changed = 0
        for a, b in sorted(desired - current):
            changed += bool(self.add_edge(a, b))
        for a, b in sorted(current - desired):
            changed += bool(self.remove_edge(a, b))
        if changed:
            self.stats.rewires += 1
        return changed

    def leave(self, name: str) -> bool:
        """Depart a server and detach all its edges (stashed for rejoin).

        Refused (returns False) when the departure would disconnect the
        remaining present servers — the node is currently a cut vertex.
        """
        server = self._servers.get(name)
        if server is None or server.departed:
            return False
        graph = self.network.graph
        remaining = [n for n in self.present() if n != name]
        if self.guard_connectivity and len(remaining) > 1:
            view = graph.subgraph(remaining)
            if not nx.is_connected(view):
                self.stats.leaves_refused += 1
                self._record("leave_refused", server=name)
                return False
        stash = [
            (name, neighbour, dict(graph.edges[name, neighbour]))
            for neighbour in sorted(graph.neighbors(name))
        ]
        server.leave()
        for a, b, _data in stash:
            self.network.remove_edge(a, b)
            self._notify_detached(a, b)
        self._detached_edges[name] = stash
        self.stats.leaves += 1
        self._record("node_leave", server=name, detached=len(stash))
        self._validate()
        return True

    def join(
        self,
        name: str,
        *,
        initial_error: float = 1.0,
        edges: Optional[Iterable[Edge]] = None,
    ) -> bool:
        """Rejoin a departed server, re-attaching its edges.

        Args:
            name: The server to bring back.
            initial_error: ε assigned on rejoin (operator-set clock).
            edges: Explicit edges to attach instead of the stashed ones
                (a mobile server rarely comes back where it left).
        """
        server = self._servers.get(name)
        if server is None or not server.departed:
            return False
        if edges is not None:
            restore = [(a, b, {}) for a, b in edges]
        else:
            restore = self._detached_edges.pop(name, [])
        for a, b, data in restore:
            self.network.add_edge(a, b, kind=data.get("kind"))
        server.rejoin(initial_error)
        self.stats.joins += 1
        self._record("node_join", server=name, attached=len(restore))
        self._validate()
        return True

    def move(self, name: str, position: Tuple[float, float]) -> int:
        """Pin a server's mobility position and rewire proximity edges.

        Requires an attached mobility model (see
        :class:`~repro.dynamic.mobility.MobilityProcess`); raises
        ``RuntimeError`` otherwise.  Returns the number of edge changes.
        """
        if self.mobility is None:
            raise RuntimeError(
                f"cannot move {name!r}: no mobility model attached"
            )
        self.mobility.place(name, position)
        return self.rewire(self.mobility.desired_edges())

    # ------------------------------------------------------------ plumbing

    def _would_disconnect(self, a: str, b: str) -> bool:
        """Whether removing ``(a, b)`` disconnects the present servers."""
        graph = self.network.graph
        data = dict(graph.edges[a, b])
        graph.remove_edge(a, b)
        try:
            view = graph.subgraph(self.present())
            return view.number_of_nodes() > 1 and not nx.is_connected(view)
        finally:
            graph.add_edge(a, b, **data)

    def _notify_detached(self, a: str, b: str) -> None:
        for name, other in ((a, b), (b, a)):
            server = self._servers.get(name)
            if server is not None and not server.departed:
                server.neighbour_detached(other)

    def _validate(self) -> None:
        if self.validate:
            self.check()

    def _record(self, kind: str, **data) -> None:
        if self.trace is not None:
            self.trace.record(self.network.engine.now, kind, "topology", **data)

"""Message transport over a topology.

:class:`Network` glues the pieces together: a topology graph, one
:class:`~repro.network.link.Link` per edge, a registry of
:class:`~repro.simulation.process.SimProcess` endpoints, and the engine that
schedules deliveries.  It exposes:

* :meth:`Network.send` — unicast along an edge (or, optionally, a long-haul
  path to a non-adjacent server, modelling the internetwork routing the
  paper's recovery anecdote relies on);
* :meth:`Network.broadcast` — the "directed broadcasting" primitive
  [Boggs 82] the paper assumes for data collection: one message to every
  neighbour;
* partition control (:meth:`partition` / :meth:`heal`) used by the
  fault-injection experiments;
* message taps (:meth:`add_tap` / :meth:`remove_tap`) — an interception
  hook the chaos injector uses to corrupt, duplicate, reorder, or drop
  individual messages in flight, chained by :func:`run_taps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import networkx as nx

from ..simulation.engine import SimulationEngine
from ..simulation.process import SimProcess
from ..simulation.rng import RngRegistry
from .delay import DelayModel
from .link import Link
from .topology import validate_topology


@dataclass
class NetworkStats:
    """Aggregate message counters across all links."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    tapped: int = 0  # deliveries rewritten (or multiplied) by a message tap


#: A message tap: called with ``(source, destination, message, delay)`` for
#: every message the transport accepted.  Return ``None`` to pass the
#: message through untouched, or a list of ``(message, delay)`` deliveries
#: replacing it — ``[]`` drops it, one entry modifies/delays it, several
#: entries duplicate it.
MessageTap = Callable[[str, str, Any, float], Optional[List[Tuple[Any, float]]]]


def run_taps(
    taps: Iterable[MessageTap], source: str, destination: str, message: Any, delay: float
) -> Tuple[List[Tuple[Any, float]], int]:
    """Chain ``taps`` over one message: ``(deliveries, taps that acted)``.

    Each tap sees every delivery the taps before it produced, so a
    duplicated message is tampered with twice.  The count is what
    ``NetworkStats.tapped`` adds up: one per tap call that returned
    deliveries instead of ``None``.  Every transport (the simulator's
    :class:`Network`, the live ``UdpTransport`` and the on-path
    ``ChaosProxy``) chains taps through here.
    """
    deliveries = [(message, delay)]
    acted = 0
    for tap in taps:
        rewritten: List[Tuple[Any, float]] = []
        for msg, dly in deliveries:
            out = tap(source, destination, msg, dly)
            if out is None:
                rewritten.append((msg, dly))
            else:
                acted += 1
                rewritten.extend(out)
        deliveries = rewritten
    return deliveries, acted


def partition_gate(groups: Iterable[Iterable[str]]) -> Callable[[str, str], bool]:
    """``cut(a, b)``: whether a partition into ``groups`` separates the two.

    Names in the same group keep communicating; different groups, and
    names in no group at all, are cut off.
    """
    side = {name: index for index, group in enumerate(groups) for name in group}

    def cut(a: str, b: str) -> bool:
        mine = side.get(a)
        return mine is None or mine != side.get(b)

    return cut


class Transport:
    """What every transport shares over a topology graph.

    The simulator's :class:`Network` and the live
    :class:`~repro.runtime.transport.UdpTransport` present one contract
    to the policy core.  The part that does not depend on how a message
    moves — endpoint registry, neighbour queries, edge add/remove,
    message taps and directed broadcast — is written once, here; a
    subclass supplies ``send``, ``link``, ``xi`` and partitions.
    """

    def __init__(self, graph: nx.Graph) -> None:
        self.graph = graph
        self._processes: Dict[str, Any] = {}
        self._taps: List[MessageTap] = []
        self._topology_version = 0

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def register(self, process: SimProcess) -> None:
        """Attach a process as the endpoint for its (topology node) name.

        Raises:
            KeyError: If the name is not a node of the topology.
            ValueError: If the name is already registered.
        """
        if process.name not in self.graph:
            raise KeyError(f"{process.name!r} is not a node of the topology")
        if process.name in self._processes:
            raise ValueError(f"{process.name!r} already registered")
        self._processes[process.name] = process

    def process(self, name: str) -> SimProcess:
        """The endpoint registered (on this host, for a live transport)
        for ``name``."""
        return self._processes[name]

    def neighbours(self, name: str) -> list[str]:
        """Sorted neighbour names of ``name``."""
        return sorted(self.graph.neighbors(name))

    @property
    def names(self) -> list[str]:
        """All server names, sorted."""
        return sorted(self.graph.nodes)

    @property
    def topology_version(self) -> int:
        """Monotonic counter bumped on every live topology mutation.

        Consumers that cache per-edge state (the telemetry sampler's
        gauge rows, for instance) compare this against their last seen
        value instead of re-scanning the edge set every sample.
        """
        return self._topology_version

    def add_edge(self, a: str, b: str, *, kind: Optional[str] = None) -> None:
        """Create a live edge between two existing nodes.

        Idempotent: adding an existing edge is a no-op.

        Args:
            a: One endpoint (must be a topology node).
            b: The other endpoint.
            kind: ``"lan"``/``"wan"`` delay class for a brand-new edge;
                defaults to lan.

        Raises:
            KeyError: If either endpoint is not a node of the topology.
            ValueError: If ``a == b``.
        """
        for name in (a, b):
            if name not in self.graph:
                raise KeyError(f"{name!r} is not a node of the topology")
        if a == b:
            raise ValueError(f"cannot add a self-edge on {a!r}")
        if self.graph.has_edge(a, b):
            return
        self.graph.add_edge(a, b, kind=kind or "lan")
        self._edge_added(a, b, kind)
        self._topology_version += 1

    def _edge_added(self, a: str, b: str, kind: Optional[str]) -> None:
        """Per-edge state for a fresh edge; none by default."""

    def remove_edge(self, a: str, b: str) -> None:
        """Remove a live edge; a no-op when the edge does not exist.

        Only the graph changes: the simulator keeps the :class:`Link`
        object (unreachable — sends gate on the graph) so a later
        ``add_edge`` restores the same link and its fault state stays
        attributable.
        """
        if not self.graph.has_edge(a, b):
            return
        self.graph.remove_edge(a, b)
        self._topology_version += 1

    def add_tap(self, tap: MessageTap) -> None:
        """Install a message tap (taps run in installation order)."""
        self._taps.append(tap)

    def remove_tap(self, tap: MessageTap) -> None:
        """Remove a previously installed tap; unknown taps are ignored."""
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    def broadcast(self, source: str, message_factory, targets: Optional[Iterable[str]] = None) -> int:
        """Directed broadcast: send to each target (default: all neighbours).

        Args:
            source: Sending server.
            message_factory: Callable ``(destination) -> message`` so each
                copy can carry its addressee (needed for reply matching).
            targets: Explicit recipient list; defaults to the topology
                neighbours of ``source``.

        Returns:
            Number of messages accepted for delivery.
        """
        recipients = list(targets) if targets is not None else self.neighbours(source)
        accepted = 0
        for destination in recipients:
            if self.send(source, destination, message_factory(destination)):
                accepted += 1
        return accepted


class Network(Transport):
    """The simulated internetwork connecting the time servers.

    Args:
        engine: Simulation engine used to schedule deliveries.
        graph: Topology; nodes are server names.  Edge attribute ``kind``
            (``"lan"``/``"wan"``), when present, selects between
            ``lan_delay`` and ``wan_delay``.
        rng: Registry supplying per-link random streams.
        lan_delay: Delay model for ordinary (or unlabelled) edges.
        wan_delay: Delay model for edges labelled ``kind="wan"``; defaults
            to ``lan_delay``.
        loss_probability: Default per-message loss on every link.
        long_haul: When set, :meth:`send` between *non-adjacent* servers is
            permitted using this delay model (modelling multi-hop internet
            routing); when None such sends are dropped.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        graph: nx.Graph,
        rng: RngRegistry,
        *,
        lan_delay: DelayModel,
        wan_delay: Optional[DelayModel] = None,
        loss_probability: float = 0.0,
        long_haul: Optional[DelayModel] = None,
    ) -> None:
        validate_topology(graph)
        super().__init__(graph)
        self.engine = engine
        self._rng = rng
        self._lan_delay = lan_delay
        self._wan_delay = wan_delay if wan_delay is not None else lan_delay
        self._long_haul = long_haul
        self._loss_probability = float(loss_probability)
        self._links: Dict[Tuple[str, str], Link] = {}
        self._xi_cache: Optional[Tuple[int, float]] = None
        self.stats = NetworkStats()
        for a, b, data in graph.edges(data=True):
            delay = self._wan_delay if data.get("kind") == "wan" else self._lan_delay
            self._links[self._key(a, b)] = Link(
                delay=delay, loss_probability=loss_probability
            )

    # ------------------------------------------------------------- plumbing

    def link(self, a: str, b: str) -> Link:
        """The link object for edge ``(a, b)``.

        Raises:
            KeyError: If the edge does not exist.
        """
        return self._links[self._key(a, b)]

    def _edge_added(self, a: str, b: str, kind: Optional[str]) -> None:
        # A restored edge (removed by churn earlier) reuses its old Link —
        # brought up, keeping its delay model — so the path behaves like
        # the same physical link coming back; ``kind`` only picks the
        # delay class of a brand-new one.
        key = self._key(a, b)
        link = self._links.get(key)
        if link is None:
            delay = self._wan_delay if kind == "wan" else self._lan_delay
            self._links[key] = Link(
                delay=delay, loss_probability=self._loss_probability
            )
        else:
            link.bring_up()

    @property
    def xi(self) -> float:
        """The service-wide round-trip bound ξ implied by the delay models.

        The worst case over the link classes *actually present* in the
        topology, plus long-haul when configured.  Cached per topology
        version: validators consult ξ on every reply, and rescanning the
        edge set each time dominated the hardened hot path.
        """
        cached = self._xi_cache
        if cached is not None and cached[0] == self._topology_version:
            return cached[1]
        bounds = [self._lan_delay.round_trip_bound]
        if any(
            data.get("kind") == "wan" for _a, _b, data in self.graph.edges(data=True)
        ):
            bounds.append(self._wan_delay.round_trip_bound)
        if self._long_haul is not None:
            bounds.append(self._long_haul.round_trip_bound)
        value = max(bounds)
        self._xi_cache = (self._topology_version, value)
        return value

    # -------------------------------------------------------------- sending

    def send(self, source: str, destination: str, message: Any) -> bool:
        """Send one message; returns whether it was accepted for delivery.

        Adjacent servers use their link (delay, loss, partition state).
        Non-adjacent servers use the long-haul model when configured, and
        are otherwise dropped — the paper's servers only talk to
        neighbours, except during other-network recovery.
        """
        self.stats.sent += 1
        if destination not in self._processes:
            self.stats.dropped += 1
            return False
        rng = self._rng.stream(f"net/{source}->{destination}")
        if self.graph.has_edge(source, destination):
            # "Forward" is the canonical key direction (lexicographically
            # smaller endpoint first); reverse traffic may use a distinct
            # delay model on asymmetric links.
            forward = self._key(source, destination)[0] == source
            delay = self.link(source, destination).try_send(rng, forward=forward)
        elif self._long_haul is not None and source != destination:
            delay = self._long_haul.sample(rng)
        else:
            delay = None
        if delay is None:
            self.stats.dropped += 1
            return False
        deliveries: List[Tuple[Any, float]] = [(message, delay)]
        if self._taps:
            deliveries, acted = run_taps(self._taps, source, destination, message, delay)
            self.stats.tapped += acted
            if not deliveries:
                self.stats.dropped += 1
                return False
        target = self._processes[destination]
        sender = self._processes.get(source)
        for msg, dly in deliveries:
            self.engine.schedule_after(
                dly,
                lambda m=msg: self._deliver(target, m, sender),
                label=f"{source}->{destination}",
            )
        return True

    def _deliver(self, target: SimProcess, message: Any, sender: Optional[SimProcess]) -> None:
        self.stats.delivered += 1
        target.deliver(message, sender)  # type: ignore[arg-type]

    # ----------------------------------------------------------- partitions

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Partition the network: block links crossing between the groups.

        Servers in the same group keep communicating; links between
        different groups (and to servers in no group) are marked
        partitioned.  Long-haul sends are unaffected by partitions only if
        both ends are in the same group.
        """
        cut = partition_gate(groups)
        for (a, b), link in self._links.items():
            link.partitioned = cut(a, b)

    def heal(self) -> None:
        """Remove any partition (link up/down flags are untouched)."""
        for link in self._links.values():
            link.partitioned = False

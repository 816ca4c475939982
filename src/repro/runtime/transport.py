"""The asyncio/UDP implementation of the transport-facing contract.

:class:`UdpTransport` presents the exact surface the policy core already
programs against on :class:`~repro.network.transport.Network` —
``send`` / ``broadcast`` / ``neighbours`` / ``register`` / ``process`` /
``link`` / ``xi`` / ``names`` / ``graph`` / ``stats`` / taps /
``partition`` / ``heal`` / ``add_edge`` / ``remove_edge`` /
``topology_version`` — but moves real datagrams: each transport owns one
UDP socket, an address book maps server names to ``(host, port)``, and
deliveries happen when the peer's socket actually receives the packet.
What does not depend on how a message moves (registry, neighbours,
edges, taps, broadcast) it shares with the simulator's ``Network``
through :class:`~repro.network.transport.Transport`.

Where the simulator *samples* link delays, the live plane *declares*
them: :meth:`link` hands out a :class:`LiveLink` whose
:class:`~repro.network.delay.DelayModel` states the operator's one-way
bound for the path.  That declared physics is exactly what the security
layer's delay guard judges measured RTTs against — same code path, real
round trips.

A transport-level :class:`RttTracker` stamps every outgoing
``TimeRequest`` and matches the returning ``TimeReply`` on
``(server, request_id)``, yielding the live ξ measurement (max observed
round trip) independently of any policy internals.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import networkx as nx

from ..network.delay import DelayModel, UniformDelay
from ..network.transport import NetworkStats, Transport, partition_gate, run_taps
from ..service.messages import TimeReply, TimeRequest
from . import wire

__all__ = ["LiveLink", "RttTracker", "UdpTransport"]

Address = Tuple[str, int]

#: Callback invoked with ``(payload, addr)`` for every control packet.
ControlHandler = Callable[[Dict[str, Any], Address], None]


class LiveLink:
    """A live edge: declared delay physics instead of sampled delays.

    Duck-types the two attributes the security layer's delay guard reads
    from a simulator :class:`~repro.network.link.Link` — ``delay`` and
    ``reverse_delay`` — so :meth:`SecurityStage._link_delay_models`
    works unchanged against real sockets.
    """

    def __init__(self, delay: DelayModel, reverse_delay: Optional[DelayModel] = None) -> None:
        self.delay = delay
        self.reverse_delay = reverse_delay


class RttTracker:
    """Match request send-stamps to reply arrivals; summarise round trips.

    Args:
        time_source: Zero-argument callable giving the current axis time.
        max_samples: Cap on retained individual samples (the summary
            counters keep counting past the cap).
    """

    def __init__(self, time_source: Callable[[], float], max_samples: int = 4096) -> None:
        self._time = time_source
        self._max_samples = max_samples
        self._outstanding: Dict[Tuple[str, int], float] = {}
        self.samples: List[float] = []
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def note_request(self, destination: str, request_id: int) -> None:
        """Stamp an outgoing request (re-sends overwrite the stamp, so a
        retried exchange measures the successful attempt)."""
        self._outstanding[(destination, request_id)] = self._time()
        # Unanswered stamps are garbage-collected wholesale rather than
        # per-deadline: the dict stays small under any sane retry policy.
        if len(self._outstanding) > 4 * self._max_samples:
            self._outstanding.clear()

    def note_reply(self, server: str, request_id: int) -> Optional[float]:
        """Record the round trip for a matching reply; None if unmatched."""
        sent = self._outstanding.pop((server, request_id), None)
        if sent is None:
            return None
        rtt = self._time() - sent
        self.count += 1
        self.total += rtt
        if rtt > self.max:
            self.max = rtt
        if len(self.samples) < self._max_samples:
            self.samples.append(rtt)
        return rtt

    def summary(self) -> Dict[str, Any]:
        """Count / mean / max / p95 over observed round trips (seconds)."""
        if not self.count:
            return {"count": 0, "mean": None, "max": None, "p95": None}
        ordered = sorted(self.samples)
        p95 = ordered[min(len(ordered) - 1, math.ceil(0.95 * len(ordered)) - 1)] if ordered else None
        return {
            "count": self.count,
            "mean": self.total / self.count,
            "max": self.max,
            "p95": p95,
        }


class _Protocol(asyncio.DatagramProtocol):
    def __init__(self, transport: "UdpTransport") -> None:
        self._owner = transport

    def datagram_received(self, data: bytes, addr: Address) -> None:
        self._owner._datagram_received(data, addr)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        self._owner.stats.dropped += 1


class UdpTransport(Transport):
    """One UDP socket speaking the cluster's wire format.

    Args:
        engine: The node's :class:`~repro.runtime.engine.WallClockEngine`
            (supplies the time axis and schedules tap-delayed sends).
        graph: The cluster topology; nodes are server names.  Drives
            ``neighbours``/``names``/edge existence exactly as in the
            simulator.
        addresses: Name → ``(host, port)`` for every cluster member.
        one_way_bound: The operator's declared one-way delay bound for
            every path (seconds); ``xi`` is twice this, and the delay
            guard judges measured RTTs against it.
        via: When set, all *data* packets are sent to this address (the
            chaos proxy) instead of the destination's own — the proxy
            routes them onward.  Control packets always bypass it.
        on_control: Handler for incoming control packets.
    """

    def __init__(
        self,
        engine,
        graph: nx.Graph,
        *,
        addresses: Dict[str, Address],
        one_way_bound: float,
        via: Optional[Address] = None,
        on_control: Optional[ControlHandler] = None,
    ) -> None:
        if one_way_bound <= 0:
            raise ValueError(f"one_way_bound must be positive, got {one_way_bound}")
        super().__init__(graph)
        self.engine = engine
        self._addresses = {name: (host, int(port)) for name, (host, port) in addresses.items()}
        self._one_way = float(one_way_bound)
        self._via = via
        self._on_control = on_control
        self._links: Dict[Tuple[str, str], LiveLink] = {}
        self._partition: Optional[Callable[[str, str], bool]] = None
        self._transport: Optional[asyncio.DatagramTransport] = None
        self.stats = NetworkStats()
        self.rtt = RttTracker(lambda: engine.now)
        self.decode_errors = 0

    # -------------------------------------------------------------- lifecycle

    async def start(self, bind: Address) -> Address:
        """Bind the socket; returns the actual local address (for port 0)."""
        loop = asyncio.get_running_loop()
        self._transport, _ = await loop.create_datagram_endpoint(
            lambda: _Protocol(self), local_addr=bind
        )
        sock = self._transport.get_extra_info("sockname")
        return (sock[0], sock[1])

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    # ------------------------------------------------------------- plumbing

    def link(self, a: str, b: str) -> LiveLink:
        """The live link for edge ``(a, b)`` (KeyError when absent)."""
        if not self.graph.has_edge(a, b):
            raise KeyError(f"no edge between {a!r} and {b!r}")
        key = self._key(a, b)
        live = self._links.get(key)
        if live is None:
            live = LiveLink(UniformDelay(self._one_way))
            self._links[key] = live
        return live

    @property
    def xi(self) -> float:
        """The declared service-wide round-trip bound: ``2 × one-way``."""
        return 2.0 * self._one_way

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Client-side partition: outbound sends crossing groups drop.

        The chaos proxy enforces partitions on-path for the gauntlet;
        this local gate keeps the simulator API complete for code that
        calls it directly on a transport.
        """
        self._partition = partition_gate(groups)

    def heal(self) -> None:
        self._partition = None

    # --------------------------------------------------------------- sending

    def send(self, source: str, destination: str, message: Any) -> bool:
        """Encode and transmit one message; True when handed to the OS."""
        self.stats.sent += 1
        if self._transport is None or destination not in self._addresses:
            self.stats.dropped += 1
            return False
        if not self.graph.has_edge(source, destination):
            self.stats.dropped += 1
            return False
        if self._partition is not None and self._partition(source, destination):
            self.stats.dropped += 1
            return False
        deliveries: List[Tuple[Any, float]] = [(message, 0.0)]
        if self._taps:
            deliveries, acted = run_taps(self._taps, source, destination, message, 0.0)
            self.stats.tapped += acted
            if not deliveries:
                self.stats.dropped += 1
                return False
        for msg, dly in deliveries:
            if isinstance(msg, TimeRequest):
                self.rtt.note_request(msg.destination, msg.request_id)
            payload = wire.encode_message(msg)
            if dly > 0:
                self.engine.schedule_after(
                    dly,
                    lambda p=payload, d=destination: self._transmit(p, d),
                    label=f"{source}->{destination}",
                )
            else:
                self._transmit(payload, destination)
        return True

    def _transmit(self, payload: bytes, destination: str) -> None:
        if self._transport is None:
            return
        target = self._via if self._via is not None else self._addresses[destination]
        self._transport.sendto(payload, target)

    def send_control(self, payload: Dict[str, Any], addr: Address) -> None:
        """Send one control packet directly (never through the proxy)."""
        if self._transport is not None:
            self._transport.sendto(wire.encode_control(payload), addr)

    # -------------------------------------------------------------- receiving

    def _datagram_received(self, data: bytes, addr: Address) -> None:
        kind = wire.packet_kind(data)
        if kind == "control":
            try:
                payload = wire.decode_control(data)
            except ValueError:
                self.decode_errors += 1
                return
            if self._on_control is not None:
                self._on_control(payload, addr)
            return
        try:
            message = wire.decode_message(data)
        except ValueError:
            # Garbage (or proxy-mangled beyond framing): a real network
            # drops what it cannot parse; admission never sees it.
            self.decode_errors += 1
            self.stats.dropped += 1
            return
        if isinstance(message, TimeReply):
            self.rtt.note_reply(message.server, message.request_id)
        target = self._processes.get(message.destination)
        if target is None:
            self.stats.dropped += 1
            return
        self.stats.delivered += 1
        target.deliver(message, None)

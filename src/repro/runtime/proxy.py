"""The netem-style fault-injecting UDP relay.

:class:`ChaosProxy` sits on-path between the live nodes: every *data*
packet of the cluster is addressed to the proxy (the transports' ``via``
option), which decodes the wire frame, consults the fault plan active at
the current axis time, and forwards — or delays, duplicates, reorders,
corrupts, tampers with, replays, swallows, or drops — the real datagram,
racing forged ones of its own where the plan says so.

The plan is the repo's fault-schedule DSL (:mod:`repro.faults.schedule`),
read as the simulator reads it.  Link-level events are gates on the
path: partitions, blackouts and flaps drop, a ``LossBurst`` adds loss
(combined with the steady loss as ``1 − Π(1 − p)``, like the simulator's
links), a ``DelaySpike`` holds the packet; endpoints match by
:func:`~repro.faults.schedule.touches`.  Message-level events run the
taps of the interpreter the simulator's injector installs
(:class:`~repro.faults.messages.MessageFaults`) over the decoded
datagram in schedule order; only an edited message is re-encoded.  Any
other event is refused, never ignored: :attr:`ChaosProxy.events` raises
``ValueError`` naming who owns it (see :data:`REFUSED`).

Determinism: all randomness comes from one seeded numpy generator, and
the *decision sequence* per packet is fixed; given the same packet
arrival order the same packets are dropped.  (Arrival order itself is
real — this is a live plane, not a simulation.)

The packet-level logic is pure (:meth:`plan`): given bytes, endpoints,
and a time, it returns the ``(payload, extra_delay)`` deliveries to
make, so the whole fault matrix is unit-testable without opening a
socket; only the adversary's own injections (a replayed copy, a
delay-attack or spoofed reply) go through the event loop.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..faults.messages import MessageFaults
from ..faults.schedule import (
    TOPOLOGY_FAULT_KINDS,
    CheckpointCorruption,
    ClockFreeze,
    ClockRace,
    ClockStep,
    DelaySpike,
    FaultEvent,
    LinkFlap,
    LossBurst,
    PartitionFault,
    ReferenceBlackout,
    ServerCrash,
    TornCheckpoint,
    TotalPartition,
    touches,
)
from ..network.transport import MessageTap, partition_gate, run_taps
from ..service.messages import TimeReply, TimeRequest
from . import wire

__all__ = ["ChaosProxy", "ProxyStats"]

Address = Tuple[str, int]

#: Link-level kinds the relay realises as gates on the path.
GATES = (PartitionFault, TotalPartition, ReferenceBlackout, LinkFlap, LossBurst, DelaySpike)

#: Kinds the relay refuses, and who realises them instead.
REFUSED = {
    ServerCrash: "ClusterSupervisor.kill",
    **dict.fromkeys(
        (ClockStep, ClockFreeze, ClockRace, CheckpointCorruption, TornCheckpoint),
        "the node itself (clocks and checkpoints live inside it)",
    ),
    **dict.fromkeys(TOPOLOGY_FAULT_KINDS, "no one: the live plane has no dynamic-topology layer"),
}


@dataclasses.dataclass
class ProxyStats:
    """What the relay itself did to the traffic (the message-level
    adversary's counters are ``ChaosProxy.message_faults.stats``)."""

    relayed: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    dropped_flap: int = 0  # link down: a flap or a blackout
    dropped_unroutable: int = 0
    delayed: int = 0


class _Protocol(asyncio.DatagramProtocol):
    def __init__(self, proxy: "ChaosProxy") -> None:
        self._owner = proxy

    def datagram_received(self, data: bytes, addr: Address) -> None:
        self._owner._datagram_received(data, addr)


class ChaosProxy:
    """A fault-injecting UDP relay for one cluster.

    Args:
        addresses: Name → ``(host, port)`` of every node's data socket.
        events: Fault-schedule events to realise on-path.
        loss: Steady-state per-packet loss probability (the gauntlet's
            "10% injected loss"), applied on top of any ``LossBurst``.
        seed: Seed for the relay's random stream.
        epoch: ``time.monotonic()`` value that is axis time zero —
            share the cluster's so event ``at`` times line up with the
            nodes' axis.
        nominal_one_way: The delay a ``DelaySpike``'s multiplicative
            ``scale`` applies to (live loopback has no sampled nominal
            delay, so the spike's held delay is
            ``extra + (scale − 1) × nominal_one_way``).

    Raises:
        ValueError: When an event is of a kind the relay refuses (see
            :data:`REFUSED`); also on any later assignment to
            :attr:`events`.
    """

    def __init__(
        self,
        *,
        addresses: Dict[str, Address],
        events: Iterable[FaultEvent] = (),
        loss: float = 0.0,
        seed: int = 0,
        epoch: Optional[float] = None,
        nominal_one_way: float = 0.005,
    ) -> None:
        self._addresses = {name: (host, int(port)) for name, (host, port) in addresses.items()}
        self.loss = float(loss)
        self._rng = np.random.default_rng(seed)
        self._epoch = time.monotonic() if epoch is None else float(epoch)
        self._nominal = float(nominal_one_way)
        self._transport: Optional[asyncio.DatagramTransport] = None
        self.address: Optional[Address] = None
        self.stats = ProxyStats()
        #: The interpreter's clock: ``now`` of the packet being planned.
        self._plan_now = 0.0
        #: δ each server last claimed in a reply the relay carried — what
        #: a spoofed reply in its name claims.
        self._deltas: Dict[str, float] = {}
        self.message_faults = MessageFaults(
            now=lambda: self._plan_now,
            call_after=self._call_after,
            send=self._inject,
            delta=lambda server: self._deltas.get(server, 0.0),
            rng=self._rng,
        )
        self.events = events

    @property
    def events(self) -> List[FaultEvent]:
        """The plan's events, sorted by activation time."""
        return [event for event, _, _ in self._plan]

    @events.setter
    def events(self, events: Iterable[FaultEvent]) -> None:
        plan: List[Tuple[FaultEvent, Optional[MessageTap], float]] = []
        for event in sorted(events, key=lambda e: e.at):
            tap = self.message_faults.tap(event)
            if tap is None and not isinstance(event, GATES):
                owner = REFUSED.get(type(event), "no one: neither plane reads it yet")
                raise ValueError(f"ChaosProxy cannot realise {event.kind}: it belongs to {owner}")
            # A flap is active for its ``downtime``, everything else for its ``duration``.
            window = event.downtime if isinstance(event, LinkFlap) else event.duration
            plan.append((event, tap, event.at + window))
        self._plan = plan

    # ------------------------------------------------------------- lifecycle

    @property
    def now(self) -> float:
        return time.monotonic() - self._epoch

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Address:
        loop = asyncio.get_running_loop()
        self._transport, _ = await loop.create_datagram_endpoint(
            lambda: _Protocol(self), local_addr=(host, port)
        )
        sock = self._transport.get_extra_info("sockname")
        self.address = (sock[0], sock[1])
        return self.address

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    # ------------------------------------------------------------- planning

    def plan(
        self, source: str, destination: str, data: bytes, now: float
    ) -> List[Tuple[bytes, float]]:
        """Decide the fate of one packet: ``(payload, extra_delay)`` list.

        Empty list = dropped.  Pure given the RNG state: no sockets, no
        clock reads — fully unit-testable.
        """
        active = [(e, tap) for e, tap, end in self._plan if e.at <= now < end]
        # Hard gates first: a partitioned or down path loses the packet
        # regardless of anything else.
        for event, _ in active:
            if isinstance(event, TotalPartition) or (
                isinstance(event, PartitionFault)
                and partition_gate(event.groups)(source, destination)
            ):
                self.stats.dropped_partition += 1
                return []
            link_down = isinstance(event, (LinkFlap, ReferenceBlackout))
            if link_down and touches(event, source, destination):
                self.stats.dropped_flap += 1
                return []
        loss = self.loss
        delay = 0.0
        for event, _ in active:
            if isinstance(event, LossBurst) and touches(event, source, destination):
                loss = 1.0 - (1.0 - loss) * (1.0 - event.probability)
            elif isinstance(event, DelaySpike) and touches(event, source, destination):
                delay += event.extra + max(0.0, event.scale - 1.0) * self._nominal
        if loss > 0 and self._rng.uniform() < loss:
            self.stats.dropped_loss += 1
            return []
        taps = [tap for _, tap in active if tap is not None]
        if not taps:
            return [(data, delay)]
        try:
            message = wire.decode_message(data)
        except ValueError:
            return [(data, delay)]  # nothing to read, nothing to edit
        self._plan_now = now
        deliveries, _ = run_taps(taps, source, destination, message, delay)
        return [
            (data if msg is message else wire.encode_message(msg), dly)
            for msg, dly in deliveries
        ]

    # ------------------------------------------------------------- relaying

    def _datagram_received(self, data: bytes, addr: Address) -> None:
        try:
            message = wire.decode_message(data)
        except ValueError:
            self.stats.dropped_unroutable += 1
            return
        if isinstance(message, TimeReply):
            self._deltas[message.server] = message.delta
        source = message.origin if isinstance(message, TimeRequest) else message.server
        destination = message.destination
        target = self._addresses.get(destination)
        if target is None:
            self.stats.dropped_unroutable += 1
            return
        for payload, delay in self.plan(source, destination, data, self.now):
            self.stats.relayed += 1
            if delay > 0:
                self.stats.delayed += 1
                self._call_after(delay, lambda p=payload: self._forward(p, target))
            else:
                self._forward(payload, target)

    def _call_after(self, delay: float, callback) -> None:
        asyncio.get_running_loop().call_later(delay, callback)

    def _inject(self, source: str, destination: str, message, delay: float) -> None:
        """The interpreter's link-bypassing send: an adversary datagram
        reaches ``destination`` after ``delay``, past every gate."""
        target = self._addresses.get(destination)
        if target is not None:
            payload = wire.encode_message(message)
            self._call_after(delay, lambda: self._forward(payload, target))

    def _forward(self, payload: bytes, target: Address) -> None:
        if self._transport is not None:
            self._transport.sendto(payload, target)

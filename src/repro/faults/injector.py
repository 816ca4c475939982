"""The fault injector: replays a :class:`FaultSchedule` against a service.

:class:`FaultInjector` is a :class:`~repro.simulation.process.SimProcess`
that arms every event of a schedule on the engine at start and applies it
when it fires:

* link faults flip :class:`~repro.network.link.Link` state (``up``,
  ``fault_loss``, ``delay_scale``/``delay_extra``) and are reference-
  counted so overlapping windows compose;
* message faults install :class:`~repro.network.transport.Network` taps
  that corrupt, duplicate, or hold back messages in flight;
* server faults crash/rejoin :class:`~repro.service.server.TimeServer`
  processes, step their clocks behind the algorithm's back, or wrap them
  in the Section 1.1 failure wrappers for the fault window;
* Byzantine faults install a tap that rewrites the liar's outgoing
  replies (offset added, error underreported);
* adversary faults emulate a deterministic on-path attacker: tampering
  with replies in flight, replaying recorded replies, substituting
  held-back stale data for fresh replies (the delay attack), and
  racing spoofed replies to a victim.  Every poisoned delivery is
  remembered in :attr:`FaultInjector.taint_keys` (see
  :func:`taint_key`) so an experiment can count exactly which poisoned
  messages a server *accepted*.

Every application is recorded into the trace (kind ``"fault"``) so a run's
fault timeline is part of its replayable artefact.  All randomness (which
message is corrupted, how far one is delayed) flows through a dedicated
named RNG stream, keeping runs bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..clocks.failures import RacingClock, StoppedClock, _FailureWrapper
from ..network.transport import Network
from ..service.messages import RequestKind, TimeReply, TimeRequest
from ..service.server import TimeServer
from ..simulation.engine import SimulationEngine
from ..simulation.process import SimProcess
from ..simulation.trace import TraceRecorder
from .schedule import (
    ByzantineReplies,
    CheckpointCorruption,
    ClockFreeze,
    ClockRace,
    ClockStep,
    DelayAttack,
    DelaySpike,
    EdgeChurn,
    FaultEvent,
    FaultSchedule,
    LinkFlap,
    LossBurst,
    MessageCorruption,
    MessageDuplication,
    MessageReorder,
    MessageReplay,
    MessageTamper,
    MobilityTrace,
    PartitionFault,
    ReferenceBlackout,
    ServerCrash,
    SpoofedReply,
    TopologyRewire,
    TornCheckpoint,
    TotalPartition,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..dynamic.topology import DynamicTopology


@dataclass
class InjectorStats:
    """What the injector actually did."""

    events_applied: int = 0
    messages_corrupted: int = 0
    messages_duplicated: int = 0
    messages_reordered: int = 0
    lies_told: int = 0
    messages_tampered: int = 0  # on-path rewrites (MessageTamper)
    messages_replayed: int = 0  # extra verbatim deliveries (MessageReplay)
    replies_delayed: int = 0  # genuine replies swallowed/held (DelayAttack)
    replies_spoofed: int = 0  # forged replies raced to a victim (SpoofedReply)


def taint_key(reply: TimeReply) -> tuple:
    """The identity under which a forged/replayed reply is remembered.

    The adversary handlers register every poisoned delivery here and the
    gauntlet's oracle checks accepted replies against the set — counting
    exactly the poisoned messages a server *accepted*, not merely saw.
    """
    return (
        reply.server,
        reply.destination,
        reply.request_id,
        reply.nonce,
        reply.clock_value,
        reply.error,
    )


class FaultInjector(SimProcess):
    """Replays a fault schedule against a live simulated service.

    Args:
        engine: The simulation engine.
        network: The transport whose links/taps are manipulated.
        servers: Server registry (schedule events name servers by name;
            unknown names are ignored with a trace note).
        schedule: The timeline to replay.
        rng: Random stream for per-message fault decisions; pass the
            service registry's ``stream("faults/injector")`` so runs stay
            reproducible.  None makes per-message probabilities behave as
            certainties (useful in unit tests).
        trace: Optional trace recorder (fault applications are recorded).
        store: The service's stable store, if it has one — target of the
            checkpoint-corruption/torn-write events (skipped otherwise).
        dynamic: The live :class:`~repro.dynamic.topology.DynamicTopology`
            layer, if the run has one — target of the topology events
            (``EdgeChurn``/``TopologyRewire``/``MobilityTrace``); those
            events are skipped with a trace note otherwise.
        name: Process name (shows up in trace rows).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        network: Network,
        servers: Dict[str, TimeServer],
        schedule: FaultSchedule,
        *,
        rng: Optional[np.random.Generator] = None,
        trace: Optional[TraceRecorder] = None,
        store=None,
        dynamic: Optional[DynamicTopology] = None,
        name: str = "chaos",
    ) -> None:
        super().__init__(engine, name)
        self.network = network
        self.servers = dict(servers)
        self.schedule = schedule
        self.trace = trace
        self.store = store
        self.dynamic = dynamic
        self.stats = InjectorStats()
        self._rng = rng
        self._link_down_counts: Dict[Tuple[str, str], int] = {}
        self._loss_bursts: Dict[Tuple[str, str], List[float]] = {}
        self._partitions_active = 0
        self._wrapped: Dict[str, _FailureWrapper] = {}
        #: Identities (see :func:`taint_key`) of every poisoned reply the
        #: adversary handlers delivered — the gauntlet's acceptance oracle.
        self.taint_keys: set = set()
        self._delay_cache: Dict[Tuple[str, str], TimeReply] = {}

    # ------------------------------------------------------------ lifecycle

    def on_start(self) -> None:
        for event in self.schedule:
            at = max(event.at, self.now)
            self.call_at(at, lambda e=event: self._fire(e))

    def _fire(self, event: FaultEvent) -> None:
        self.stats.events_applied += 1
        self._trace_fault(event)
        handler = getattr(self, f"_apply_{type(event).__name__}")
        handler(event)

    def _trace_fault(self, event: FaultEvent, note: str = "") -> None:
        if self.trace is not None:
            data = {"event": event.describe()}
            if note:
                data["note"] = note
            self.trace.record(self.now, "fault", self.name, **data)

    def _chance(self, probability: float) -> bool:
        if self._rng is None:
            return True
        return float(self._rng.uniform()) < probability

    # ---------------------------------------------------------- link faults

    def _apply_LinkFlap(self, event: LinkFlap) -> None:
        try:
            link = self.network.link(event.a, event.b)
        except KeyError:
            return
        key = self.network._key(event.a, event.b)
        self._link_down_counts[key] = self._link_down_counts.get(key, 0) + 1
        link.take_down()
        self.call_after(event.downtime, lambda: self._link_up(key))

    def _link_up(self, key: Tuple[str, str]) -> None:
        # Reference-counted so overlapping flaps don't resurrect a link
        # another window still holds down.
        self._link_down_counts[key] -= 1
        if self._link_down_counts[key] <= 0:
            self.network._links[key].bring_up()

    def _apply_DelaySpike(self, event: DelaySpike) -> None:
        try:
            link = self.network.link(event.a, event.b)
        except KeyError:
            return
        link.delay_scale *= event.scale
        link.delay_extra += event.extra
        self.call_after(event.duration, lambda: self._delay_restore(link, event))

    def _delay_restore(self, link, event: DelaySpike) -> None:
        link.delay_scale /= event.scale
        link.delay_extra -= event.extra

    def _apply_LossBurst(self, event: LossBurst) -> None:
        try:
            self.network.link(event.a, event.b)
        except KeyError:
            return  # no such edge
        key = self.network._key(event.a, event.b)
        bursts = self._loss_bursts.setdefault(key, [])
        bursts.append(event.probability)
        self._recompute_loss(key)
        self.call_after(event.duration, lambda: self._loss_end(key, event.probability))

    def _loss_end(self, key: Tuple[str, str], probability: float) -> None:
        self._loss_bursts[key].remove(probability)
        self._recompute_loss(key)

    def _recompute_loss(self, key: Tuple[str, str]) -> None:
        survive = 1.0
        for p in self._loss_bursts.get(key, []):
            survive *= 1.0 - p
        self.network._links[key].fault_loss = 1.0 - survive

    def _apply_PartitionFault(self, event: PartitionFault) -> None:
        self.network.partition([list(group) for group in event.groups])
        self._partitions_active += 1
        self.call_after(event.duration, self._partition_heal)

    def _partition_heal(self) -> None:
        # heal() clears every partition flag, so only the last active
        # window may heal (overlapping partitions extend the outage).
        self._partitions_active -= 1
        if self._partitions_active <= 0:
            self.network.heal()

    def _apply_ReferenceBlackout(self, event: ReferenceBlackout) -> None:
        targets = set(event.servers)
        keys = [
            key
            for key in self.network._links
            if key[0] in targets or key[1] in targets
        ]
        if not keys:
            self._trace_fault(event, note="skipped: no adjacent links")
            return
        for key in keys:
            self._link_down_counts[key] = self._link_down_counts.get(key, 0) + 1
            self.network._links[key].take_down()
        self.call_after(
            event.duration, lambda: [self._link_up(key) for key in keys]
        )

    def _apply_TotalPartition(self, event: TotalPartition) -> None:
        self.network.partition([[name] for name in sorted(self.servers)])
        self._partitions_active += 1
        self.call_after(event.duration, self._partition_heal)

    # ------------------------------------------------------- message faults

    def _windowed_tap(self, tap, duration: float) -> None:
        self.network.add_tap(tap)
        self.call_after(duration, lambda: self.network.remove_tap(tap))

    def _apply_MessageCorruption(self, event: MessageCorruption) -> None:
        def tap(source, destination, message, delay):
            if not isinstance(message, TimeReply):
                return None
            if not self._chance(event.probability):
                return None
            self.stats.messages_corrupted += 1
            mode = 0 if self._rng is None else int(self._rng.integers(3))
            if mode == 0:
                garbled = replace(message, clock_value=float("nan"))
            elif mode == 1:
                garbled = replace(message, error=-1.0)
            else:
                sign = 1.0 if (self._rng is None or self._rng.uniform() < 0.5) else -1.0
                garbled = replace(
                    message, clock_value=message.clock_value + sign * 1e6
                )
            return [(garbled, delay)]

        self._windowed_tap(tap, event.duration)

    def _apply_MessageDuplication(self, event: MessageDuplication) -> None:
        def tap(source, destination, message, delay):
            if not self._chance(event.probability):
                return None
            self.stats.messages_duplicated += 1
            return [(message, delay), (message, delay + event.extra_delay)]

        self._windowed_tap(tap, event.duration)

    def _apply_MessageReorder(self, event: MessageReorder) -> None:
        def tap(source, destination, message, delay):
            if not self._chance(event.probability):
                return None
            self.stats.messages_reordered += 1
            extra = (
                event.max_extra
                if self._rng is None
                else float(self._rng.uniform(0.0, event.max_extra))
            )
            return [(message, delay + extra)]

        self._windowed_tap(tap, event.duration)

    # -------------------------------------------------------- server faults

    def _apply_ServerCrash(self, event: ServerCrash) -> None:
        server = self.servers.get(event.server)
        if server is None:
            return
        # Servers with the recovery subsystem take the crash/restart
        # path: the restart rebuilds the interval from the stable store
        # (warm) and only uses rejoin_error as the cold-start fallback.
        crash = getattr(server, "crash", None)
        if callable(crash):
            crash()
        else:
            server.leave()
        self.call_after(
            event.downtime, lambda: self._server_rejoin(server, event.rejoin_error)
        )

    def _server_rejoin(self, server: TimeServer, rejoin_error: float) -> None:
        if not server.departed:
            return
        restart = getattr(server, "restart", None)
        if callable(restart):
            restart(cold_error=rejoin_error)
        else:
            server.rejoin(rejoin_error)

    def _apply_CheckpointCorruption(self, event: CheckpointCorruption) -> None:
        if self.store is None:
            self._trace_fault(event, note="skipped: no stable store")
            return
        if not self.store.corrupt(event.server):
            self._trace_fault(event, note="skipped: no checkpoint slot")

    def _apply_TornCheckpoint(self, event: TornCheckpoint) -> None:
        if self.store is None:
            self._trace_fault(event, note="skipped: no stable store")
            return
        self.store.tear(event.server)

    def _apply_ClockStep(self, event: ClockStep) -> None:
        server = self.servers.get(event.server)
        if server is None:
            return
        clock = server.clock
        clock.set(self.now, clock.read(self.now) + event.offset)

    def _apply_ClockFreeze(self, event: ClockFreeze) -> None:
        server = self.servers.get(event.server)
        if server is None or event.server in self._wrapped:
            self._trace_fault(event, note="skipped: clock already wrapped")
            return
        wrapper = StoppedClock(server.clock, fail_at=self.now)
        self._install_wrapper(server, wrapper, event.duration)

    def _apply_ClockRace(self, event: ClockRace) -> None:
        server = self.servers.get(event.server)
        if server is None or event.server in self._wrapped:
            self._trace_fault(event, note="skipped: clock already wrapped")
            return
        wrapper = RacingClock(server.clock, fail_at=self.now, racing_skew=event.skew)
        self._install_wrapper(server, wrapper, event.duration)

    def _install_wrapper(
        self, server: TimeServer, wrapper: _FailureWrapper, duration: float
    ) -> None:
        self._wrapped[server.name] = wrapper
        server.clock = wrapper
        self.call_after(duration, lambda: self._unwrap(server, wrapper))

    def _unwrap(self, server: TimeServer, wrapper: _FailureWrapper) -> None:
        self._wrapped.pop(server.name, None)
        if server.clock is wrapper:
            server.clock = wrapper.detach(self.now)

    def _apply_ByzantineReplies(self, event: ByzantineReplies) -> None:
        def tap(source, destination, message, delay):
            if source != event.server or not isinstance(message, TimeReply):
                return None
            self.stats.lies_told += 1
            lie = replace(
                message,
                clock_value=message.clock_value + event.offset,
                error=message.error * event.error_scale,
            )
            return [(lie, delay)]

        self._windowed_tap(tap, event.duration)

    # ----------------------------------------------------- adversary faults

    def _send_direct(
        self, source: str, destination: str, message, delay: float
    ) -> None:
        """Deliver a message bypassing link physics, loss, and taps.

        This is how an on-path adversary injects traffic: the forged
        message materialises at the victim's doorstep after ``delay``
        seconds regardless of what the real link would have allowed.
        """
        target = self.network._processes.get(destination)
        if target is None:
            return
        sender = self.network._processes.get(source)
        self.engine.schedule_after(
            delay,
            lambda: self.network._deliver(target, message, sender),
            label=f"adversary:{source}->{destination}",
        )

    @staticmethod
    def _edge_filter(a: str, b: str):
        """Matcher for a (bidirectional) edge; empty names match all."""
        edge = frozenset((a, b)) if a and b else None

        def matches(source: str, destination: str) -> bool:
            return edge is None or frozenset((source, destination)) == edge

        return matches

    def _apply_MessageTamper(self, event: MessageTamper) -> None:
        on_edge = self._edge_filter(event.a, event.b)

        def tap(source, destination, message, delay):
            if not isinstance(message, TimeReply):
                return None
            if not on_edge(source, destination):
                return None
            if not self._chance(event.probability):
                return None
            self.stats.messages_tampered += 1
            # The auth tag (if any) is carried over unchanged: the MAC
            # no longer matches the rewritten payload, which is the point.
            forged = replace(
                message, clock_value=message.clock_value + event.offset
            )
            self.taint_keys.add(taint_key(forged))
            return [(forged, delay)]

        self._windowed_tap(tap, event.duration)

    def _apply_MessageReplay(self, event: MessageReplay) -> None:
        on_edge = self._edge_filter(event.a, event.b)

        def tap(source, destination, message, delay):
            if not isinstance(message, (TimeReply, TimeRequest)):
                return None
            if not on_edge(source, destination):
                return None
            if not self._chance(event.probability):
                return None

            def redeliver(msg=message, src=source, dst=destination):
                self.stats.messages_replayed += 1
                # Tainted only now: the genuine copy accepted `hold`
                # seconds ago was legitimate; this delivery is the attack.
                if isinstance(msg, TimeReply):
                    self.taint_keys.add(taint_key(msg))
                self._send_direct(src, dst, msg, 0.0)

            self.call_after(delay + event.hold, redeliver)
            return None  # the original delivery is untouched

        self._windowed_tap(tap, event.duration)

    def _apply_DelayAttack(self, event: DelayAttack) -> None:
        victim, upstream = event.a, event.b

        def tap(source, destination, message, delay):
            # Reply leg upstream -> victim: capture and swallow.
            if (
                source == upstream
                and destination == victim
                and isinstance(message, TimeReply)
                and message.kind is RequestKind.POLL
            ):
                self._delay_cache[(upstream, victim)] = message
                self.stats.replies_delayed += 1
                return []  # the victim never sees the genuine reply
            # Request leg victim -> upstream: answer from the cache,
            # re-labelled fresh and implausibly fast.  The request still
            # travels on (its genuine reply will be swallowed above).
            if (
                source == victim
                and destination == upstream
                and isinstance(message, TimeRequest)
                and message.kind is RequestKind.POLL
            ):
                cached = self._delay_cache.get((upstream, victim))
                if cached is not None:
                    forged = replace(
                        cached,
                        request_id=message.request_id,
                        nonce=message.nonce,
                    )
                    # A same-round retry gets the byte-identical held-back
                    # reply — that is the genuine message delivered late,
                    # not a forgery, so it earns no taint.
                    if forged != cached:
                        self.taint_keys.add(taint_key(forged))
                    self._send_direct(upstream, victim, forged, event.fast_delay)
            return None

        self._windowed_tap(tap, event.duration)

    def _apply_SpoofedReply(self, event: SpoofedReply) -> None:
        def tap(source, destination, message, delay):
            if (
                source != event.victim
                or destination != event.server
                or not isinstance(message, TimeRequest)
                or message.kind is not RequestKind.POLL
            ):
                return None
            impersonated = self.servers.get(event.server)
            forged = TimeReply(
                request_id=message.request_id,
                server=event.server,
                destination=event.victim,
                clock_value=self.now + event.offset,
                error=event.claimed_error,
                kind=RequestKind.POLL,
                delta=impersonated.delta if impersonated is not None else 0.0,
                nonce=message.nonce,
            )
            self.stats.replies_spoofed += 1
            self.taint_keys.add(taint_key(forged))
            self._send_direct(event.server, event.victim, forged, event.fast_delay)
            return None  # the genuine exchange proceeds — and lands late

        self._windowed_tap(tap, event.duration)

    # ------------------------------------------------------ topology faults

    def _apply_EdgeChurn(self, event: EdgeChurn) -> None:
        if self.dynamic is None:
            self._trace_fault(event, note="skipped: no dynamic topology")
            return
        if event.action == "add":
            self.dynamic.add_edge(event.a, event.b)
        elif event.action == "remove":
            if not self.dynamic.remove_edge(event.a, event.b):
                self._trace_fault(event, note="skipped: guard refused removal")
        else:
            self._trace_fault(
                event, note=f"skipped: unknown action {event.action!r}"
            )

    def _apply_TopologyRewire(self, event: TopologyRewire) -> None:
        if self.dynamic is None:
            self._trace_fault(event, note="skipped: no dynamic topology")
            return
        self.dynamic.rewire(
            tuple((str(a), str(b)) for a, b in event.edges)
        )

    def _apply_MobilityTrace(self, event: MobilityTrace) -> None:
        if self.dynamic is None or self.dynamic.mobility is None:
            self._trace_fault(event, note="skipped: no mobility model")
            return
        if event.server not in self.dynamic.mobility:
            self._trace_fault(event, note="skipped: unknown server")
            return
        self.dynamic.move(event.server, (event.x, event.y))

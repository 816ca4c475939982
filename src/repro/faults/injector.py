"""The fault injector: replays a :class:`FaultSchedule` against a service.

:class:`FaultInjector` is a :class:`~repro.simulation.process.SimProcess`
that arms every event of a schedule on the engine at start and applies it
when it fires:

* link faults flip :class:`~repro.network.link.Link` state (``up``,
  ``fault_loss``, ``delay_scale``/``delay_extra``) on every link the
  event :func:`~repro.faults.schedule.touches`, and are reference-counted
  so overlapping windows compose;
* message faults — corruption, duplication, reordering, Byzantine lies
  and the on-path adversary (tamper, replay, delay attack, spoofing) —
  are read by :class:`~repro.faults.messages.MessageFaults`, the one
  interpreter both planes share; the injector installs its tap on the
  :class:`~repro.network.transport.Network` for the event's window and
  supplies the simulator's time, timer, link-bypassing send, server δ
  and RNG stream;
* server faults crash/rejoin :class:`~repro.service.server.TimeServer`
  processes, step their clocks behind the algorithm's back, or wrap them
  in the Section 1.1 failure wrappers for the fault window.

Every application is recorded into the trace (kind ``"fault"``) so a run's
fault timeline is part of its replayable artefact.  All randomness (which
message is corrupted, how far one is delayed) flows through a dedicated
named RNG stream, keeping runs bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..clocks.failures import RacingClock, StoppedClock, _FailureWrapper
from ..network.transport import Network
from ..service.server import TimeServer
from ..simulation.engine import SimulationEngine
from ..simulation.process import SimProcess
from ..simulation.trace import TraceRecorder
from .messages import MessageFaults, MessageFaultStats
from .schedule import (
    CheckpointCorruption,
    ClockFreeze,
    ClockRace,
    ClockStep,
    DelaySpike,
    EdgeChurn,
    FaultEvent,
    FaultSchedule,
    LinkFlap,
    LossBurst,
    MobilityTrace,
    PartitionFault,
    ReferenceBlackout,
    ServerCrash,
    TopologyRewire,
    TornCheckpoint,
    TotalPartition,
    touches,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..dynamic.topology import DynamicTopology


@dataclass
class InjectorStats(MessageFaultStats):
    """What the injector actually did: events fired, plus the message-fault
    counters its interpreter increments."""

    events_applied: int = 0


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
        self.message_faults = MessageFaults(
            now=lambda: self.now,
            call_after=self.call_after,
            send=self._send_direct,
            delta=lambda server: getattr(self.servers.get(server), "delta", 0.0),
            rng=rng,
            stats=self.stats,
        )
        self._link_down_counts: Dict[Tuple[str, str], int] = {}
        self._loss_bursts: Dict[Tuple[str, str], List[float]] = {}
        self._partitions_active = 0
        self._wrapped: Dict[str, _FailureWrapper] = {}

    # ------------------------------------------------------------ lifecycle

    def on_start(self) -> None:
        for event in self.schedule:
            at = max(event.at, self.now)
            self.call_at(at, lambda e=event: self._fire(e))

    def _fire(self, event: FaultEvent) -> None:
        self.stats.events_applied += 1
        self._trace_fault(event)
        tap = self.message_faults.tap(event)
        if tap is None:
            getattr(self, f"_apply_{event.kind}")(event)
        else:
            self.network.add_tap(tap)
            self.call_after(event.duration, lambda: self.network.remove_tap(tap))

    def _trace_fault(self, event: FaultEvent, note: str = "") -> None:
        if self.trace is not None:
            data = {"event": event.describe()}
            if note:
                data["note"] = note
            self.trace.record(self.now, "fault", self.name, **data)

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

    # ---------------------------------------------------------- link faults

    def _touched(self, event: FaultEvent) -> List[Tuple[str, str]]:
        """Keys of every link ``event`` applies to (see ``touches``)."""
        return [key for key in self.network._links if touches(event, *key)]

    def _apply_LinkFlap(self, event: LinkFlap) -> None:
        self._take_down(self._touched(event), event.downtime)

    def _apply_ReferenceBlackout(self, event: ReferenceBlackout) -> None:
        keys = self._touched(event)
        if not keys:
            self._trace_fault(event, note="skipped: no adjacent links")
        self._take_down(keys, event.duration)

    def _take_down(self, keys: List[Tuple[str, str]], duration: float) -> None:
        if not keys:
            return
        for key in keys:
            self._link_down_counts[key] = self._link_down_counts.get(key, 0) + 1
            self.network._links[key].take_down()
        self.call_after(duration, lambda: [self._link_up(key) for key in keys])

    def _link_up(self, key: Tuple[str, str]) -> None:
        # Reference-counted so overlapping flaps don't resurrect a link
        # another window still holds down.
        self._link_down_counts[key] -= 1
        if self._link_down_counts[key] <= 0:
            self.network._links[key].bring_up()

    def _apply_DelaySpike(self, event: DelaySpike) -> None:
        links = [self.network._links[key] for key in self._touched(event)]
        if not links:
            return
        for link in links:
            link.delay_scale *= event.scale
            link.delay_extra += event.extra
        self.call_after(event.duration, lambda: self._delay_restore(links, event))

    def _delay_restore(self, links, event: DelaySpike) -> None:
        for link in links:
            link.delay_scale /= event.scale
            link.delay_extra -= event.extra

    def _apply_LossBurst(self, event: LossBurst) -> None:
        keys = self._touched(event)
        if not keys:
            return
        for key in keys:
            self._loss_bursts.setdefault(key, []).append(event.probability)
            self._recompute_loss(key)
        self.call_after(event.duration, lambda: self._loss_end(keys, event.probability))

    def _loss_end(self, keys: List[Tuple[str, str]], probability: float) -> None:
        for key in keys:
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

    def _apply_TotalPartition(self, event: TotalPartition) -> None:
        self.network.partition([[name] for name in sorted(self.servers)])
        self._partitions_active += 1
        self.call_after(event.duration, self._partition_heal)

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

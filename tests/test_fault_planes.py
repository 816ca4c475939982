"""One reading of the fault DSL on both planes.

The simulator's :class:`~repro.faults.injector.FaultInjector` and the
live plane's :class:`~repro.runtime.proxy.ChaosProxy` share one
interpreter for the message-level events and one edge rule
(:func:`~repro.faults.schedule.touches`).  These tests drive the same
events, seed and traffic through both — a zero-delay two-server (or
five-server) :class:`~repro.network.transport.Network` on one side,
:meth:`ChaosProxy.plan` over encoded frames on the other — and require
the same deliveries, arrival times, counters and taint keys.  They also
hold every event kind to a decision: read by the injector, and realised
or refused by name on the live plane.
"""

from __future__ import annotations

import dataclasses
import heapq
import inspect
import itertools

import numpy as np
import pytest

from repro.experiments import live_gauntlet
from repro.faults import schedule
from repro.faults.injector import FaultInjector
from repro.faults.messages import MessageFaults, MessageFaultStats
from repro.faults.schedule import (
    ByzantineReplies,
    DelayAttack,
    FaultEvent,
    FaultSchedule,
    MessageCorruption,
    MessageDuplication,
    MessageReorder,
    MessageReplay,
    MessageTamper,
    ServerCrash,
    SpoofedReply,
)
from repro.network.delay import ConstantDelay
from repro.network.topology import full_mesh
from repro.network.transport import Network
from repro.runtime import wire
from repro.runtime.proxy import GATES, REFUSED, ChaosProxy
from repro.service.messages import RequestKind, TimeReply, TimeRequest
from repro.simulation.engine import SimulationEngine
from repro.simulation.process import SimProcess
from repro.simulation.rng import RngRegistry

SEED = 3

#: One event per message-level kind, windows open over the whole script.
MESSAGE_EVENTS = {
    "MessageCorruption": MessageCorruption(at=0.0, probability=0.7, duration=100.0),
    "MessageDuplication": MessageDuplication(
        at=0.0, probability=0.6, duration=100.0, extra_delay=0.05
    ),
    "MessageReorder": MessageReorder(at=0.0, probability=0.6, duration=100.0, max_extra=0.2),
    "ByzantineReplies": ByzantineReplies(
        at=0.0, server="S2", duration=100.0, offset=0.4, error_scale=0.1
    ),
    "MessageTamper": MessageTamper(at=0.0, a="S2", offset=0.3, probability=0.7, duration=100.0),
    "MessageReplay": MessageReplay(at=0.0, probability=0.6, hold=1.5, duration=100.0),
    "DelayAttack": DelayAttack(at=0.0, a="S1", b="S2", duration=100.0),
    "SpoofedReply": SpoofedReply(
        at=0.0, server="S2", victim="S1", offset=0.3, claimed_error=0.01, duration=100.0
    ),
}


def _exchange(t: float, origin: str, server: str, request_id: int):
    """One poll: the request at ``t`` and its reply 10 ms later."""
    nonce = 1000 + request_id
    return [
        (t, origin, server, TimeRequest(request_id, origin, server, nonce=nonce)),
        (
            t + 0.01,
            server,
            origin,
            TimeReply(request_id, server, origin, clock_value=t + 0.012, error=0.004,
                      nonce=nonce),
        ),
    ]


def _two_server_traffic():
    traffic = []
    for k in range(8):
        traffic += _exchange(1.0 + k, "S1", "S2", 2 * k + 1)
        traffic += _exchange(1.3 + k, "S2", "S1", 2 * k + 2)
    return traffic


class _Sink(SimProcess):
    def __init__(self, engine, name, log):
        super().__init__(engine, name)
        self.log = log

    def on_message(self, message, sender):
        self.log.append((round(self.now, 9), self.name, wire.encode_message(message)))


def _through_injector(events, traffic, servers):
    """Deliveries ``(arrival, receiver, frame)`` on a zero-delay mesh."""
    engine = SimulationEngine()
    network = Network(engine, full_mesh(servers), RngRegistry(0), lan_delay=ConstantDelay(0.0))
    log = []
    sinks = {name: _Sink(engine, name, log) for name in network.names}
    for sink in sinks.values():
        network.register(sink)
        sink.start()
    injector = FaultInjector(
        engine, network, sinks, FaultSchedule(events), rng=np.random.default_rng(SEED)
    )
    injector.start()
    for t, source, destination, message in traffic:
        engine.schedule_at(t, lambda s=source, d=destination, m=message: network.send(s, d, m))
    engine.run()
    return sorted(log), injector.stats, injector.message_faults.taint_keys


def _through_proxy(events, traffic):
    """The same deliveries, from :meth:`ChaosProxy.plan` on encoded frames.

    The adversary's own injections (replayed copies, delay-attack and
    spoofed replies) are caught at the interpreter's ``send``; its
    timer is a heap fired in time order between packets, standing in
    for the event loop.
    """
    proxy = ChaosProxy(addresses={}, events=events, seed=SEED)
    log, timers, order, clock = [], [], itertools.count(), [0.0]

    def call_after(delay, callback):
        heapq.heappush(timers, (clock[0] + delay, next(order), callback))

    def send(source, destination, message, delay):
        log.append((round(clock[0] + delay, 9), destination, wire.encode_message(message)))

    proxy.message_faults.call_after, proxy.message_faults.send = call_after, send
    for t, source, destination, message in traffic + [(float("inf"), None, None, None)]:
        while timers and timers[0][0] <= t:
            clock[0], _, callback = heapq.heappop(timers)
            callback()
        if message is None:
            break
        clock[0] = t
        for payload, delay in proxy.plan(source, destination, wire.encode_message(message), t):
            log.append((round(t + delay, 9), destination, payload))
    return sorted(log), proxy.message_faults.stats, proxy.message_faults.taint_keys


def _counters(stats) -> dict:
    return {f.name: getattr(stats, f.name) for f in dataclasses.fields(MessageFaultStats)}


@pytest.mark.parametrize("kind", sorted(MESSAGE_EVENTS))
def test_the_same_event_reads_the_same_on_both_planes(kind):
    event, traffic = MESSAGE_EVENTS[kind], _two_server_traffic()
    simulated, sim_stats, sim_taint = _through_injector([event], traffic, servers=2)
    live, live_stats, live_taint = _through_proxy([event], traffic)
    assert live == simulated  # same edited messages, same arrival times
    assert _counters(live_stats) == _counters(sim_stats)
    assert any(_counters(sim_stats).values()), "the event never acted"
    assert live_taint == sim_taint


def test_live_gauntlet_events_touch_the_same_edges_on_both_planes():
    """Every directed edge of ``full_mesh(5)`` polled inside every window
    of live-gauntlet's own plan: both planes edit, delay, swallow and
    replay exactly the same messages.  (Before the planes shared one edge
    rule, the simulator read ``MessageTamper(a="S1")`` as *every* edge —
    shifting each reply by twice the offset — and the wildcard delay
    spike as nothing at all.)"""
    events = live_gauntlet.fault_events(0.0, live_gauntlet.DURATION)
    names = sorted(full_mesh(5).nodes)
    traffic, request_id = [], itertools.count(1)
    for event in events:
        middle = event.at + event.duration / 2
        for offset, (origin, server) in enumerate(itertools.permutations(names, 2)):
            traffic += _exchange(middle + 0.02 * offset, origin, server, next(request_id))
    traffic.sort(key=lambda row: row[0])
    simulated, sim_stats, _ = _through_injector(events, traffic, servers=5)
    live, live_stats, _ = _through_proxy(events, traffic)
    assert live == simulated
    assert _counters(live_stats) == _counters(sim_stats)

    tamper_at = events[-1].at
    shifts = {}
    for arrival, receiver, frame in simulated:
        message = wire.decode_message(frame)
        if isinstance(message, TimeReply) and arrival >= tamper_at:
            asked = arrival - 0.01  # zero-delay links: the poll went out 10 ms earlier
            shifts[message.server, receiver] = round(message.clock_value - (asked + 0.012), 6)
    offset = live_gauntlet.TAMPER_OFFSET
    assert shifts[("S1", "S2")] == pytest.approx(2 * offset)  # both windows touch it
    assert shifts[("S3", "S1")] == pytest.approx(offset)
    assert shifts[("S4", "S5")] == 0.0  # touches neither anchor


# ----------------------------------------------------- every kind decided


def _kinds():
    return sorted(
        (cls for _, cls in inspect.getmembers(schedule, inspect.isclass)
         if issubclass(cls, FaultEvent) and cls is not FaultEvent),
        key=lambda cls: cls.__name__,
    )


def _interpreter():
    return MessageFaults(now=float, call_after=None, send=None, delta=None, rng=None)


@pytest.mark.parametrize("kind", _kinds(), ids=lambda cls: cls.__name__)
def test_every_kind_is_read_by_the_injector_and_decided_live(kind):
    """A new event kind fails here until both planes decide what it is."""
    event = kind(at=0.0)
    tap = _interpreter().tap(event)
    assert tap is not None or hasattr(FaultInjector, f"_apply_{kind.__name__}")
    if kind in REFUSED:
        with pytest.raises(ValueError) as refusal:
            ChaosProxy(addresses={}, events=[event])
        assert f"{kind.__name__}: it belongs to {REFUSED[kind]}" in str(refusal.value)
    else:
        proxy = ChaosProxy(addresses={}, events=[event])
        assert proxy.events == [event]
        assert tap is not None or issubclass(kind, GATES)


def test_the_live_plane_realises_14_kinds_and_refuses_9_by_name():
    kinds = _kinds()
    realised = [k for k in kinds if k in GATES or _interpreter().tap(k(at=0.0))]
    refused = [k for k in kinds if k in REFUSED]
    assert (len(kinds), len(realised), len(refused)) == (23, 14, 9)
    assert not set(realised) & set(refused)


def test_refusal_also_guards_reassignment():
    """live-gauntlet assigns ``proxy.events`` after ``start()``."""
    proxy = ChaosProxy(addresses={})
    with pytest.raises(ValueError, match="ServerCrash: it belongs to ClusterSupervisor.kill"):
        proxy.events = [ServerCrash(at=1.0, server="S1")]
    assert proxy.events == []


def test_live_gauntlet_reports_the_shared_counter_names():
    report = live_gauntlet.proxy_report(ChaosProxy(addresses={}))
    assert set(_counters(MessageFaultStats())) <= set(report)
    assert {"relayed", "delayed", "dropped_loss"} <= set(report)
    assert not {"tampered", "duplicated", "reordered", "corrupted"} & set(report)


def test_the_spoofer_learns_the_impersonated_delta_from_relayed_replies():
    proxy = ChaosProxy(
        addresses={"S1": ("127.0.0.1", 9)},
        events=[SpoofedReply(at=0.0, server="S2", victim="S1", duration=10.0)],
    )
    sent = []
    proxy.message_faults.send = lambda source, destination, message, delay: sent.append(message)
    reply = TimeReply(1, "S2", "S1", clock_value=5.0, error=0.01, delta=3e-4)
    proxy._datagram_received(wire.encode_message(reply), ("127.0.0.1", 1))
    request = TimeRequest(2, "S1", "S2", kind=RequestKind.POLL, nonce=9)
    proxy.plan("S1", "S2", wire.encode_message(request), now=1.0)
    assert [message.delta for message in sent] == [3e-4]

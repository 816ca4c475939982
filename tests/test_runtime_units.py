"""Socket-free units of the live runtime plane (tier-1 safe).

Wire framing, the wall-clock engine's Scheduler contract, RTT tracking,
the chaos proxy's pure packet planner, and supervisor backoff — all
exercised without binding a port or spawning a process.  The live
loopback integration suite is ``test_runtime_loopback.py`` (marker
``runtime``).
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.faults.schedule import (
    DelaySpike,
    LinkFlap,
    LossBurst,
    MessageCorruption,
    MessageDuplication,
    MessageTamper,
    PartitionFault,
    ReferenceBlackout,
    touches,
)
from repro.runtime import wire
from repro.runtime.engine import WallClockEngine
from repro.runtime.proxy import ChaosProxy
from repro.runtime.supervisor import RestartPolicy
from repro.runtime.transport import RttTracker
from repro.security.auth import Keyring, MessageAuthenticator
from repro.service.messages import RequestKind, TimeReply, TimeRequest
from repro.simulation.engine import SchedulingError
from repro.simulation.scheduler import Scheduler


# ----------------------------------------------------------------- wire


def test_wire_request_roundtrip():
    request = TimeRequest(
        request_id=7, origin="S1", destination="S2", kind=RequestKind.POLL
    )
    assert wire.decode_message(wire.encode_message(request)) == request


def test_wire_reply_roundtrip_preserves_auth():
    reply = TimeReply(
        request_id=3,
        server="S2",
        destination="S1",
        clock_value=12.5,
        error=0.004,
        auth=(1, 42, "ab" * 32),
    )
    decoded = wire.decode_message(wire.encode_message(reply))
    assert decoded == reply
    assert decoded.auth == (1, 42, "ab" * 32)


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"X",
        b"Rjunk",
        b"R3:(),",  # truncated payload
        b"R999:()",  # header length beyond the datagram
        b"R4:[1],payload",  # auth not a tuple
        b"R9:(1,2,3),payload",  # mac not a string
    ],
)
def test_wire_rejects_malformed_frames(data):
    with pytest.raises(ValueError):
        wire.decode_message(data)


def test_wire_truncated_canonical_payload_rejected():
    frame = wire.encode_message(
        TimeRequest(request_id=1, origin="A", destination="B")
    )
    with pytest.raises(ValueError):
        wire.decode_message(frame[:-3])


def test_wire_control_roundtrip_and_kind():
    payload = {"op": "ping", "token": 5}
    frame = wire.encode_control(payload)
    assert wire.packet_kind(frame) == "control"
    assert wire.decode_control(frame) == payload
    kind, decoded = wire.decode_packet(frame)
    assert kind == "control" and decoded == payload
    data_frame = wire.encode_message(
        TimeRequest(request_id=1, origin="A", destination="B")
    )
    assert wire.packet_kind(data_frame) == "message"
    assert wire.packet_kind(b"Z") == "unknown"
    with pytest.raises(ValueError):
        wire.decode_packet(b"Zx")


def test_wire_tamper_invalidates_mac():
    """What is signed is what is sent: an on-path edit breaks the tag."""
    signer = MessageAuthenticator(Keyring.from_secret("test-secret"))
    reply = signer.sign(
        TimeReply(
            request_id=1, server="S1", destination="S3",
            clock_value=100.0, error=0.003,
        )
    )
    assert signer.verify(reply) == "ok"
    proxy = ChaosProxy(
        addresses={}, events=[MessageTamper(at=0.0, offset=0.06, duration=10.0)], seed=0
    )
    [(tampered_bytes, _)] = proxy.plan("S1", "S3", wire.encode_message(reply), now=1.0)
    tampered = wire.decode_message(tampered_bytes)
    assert tampered.clock_value == pytest.approx(100.06)
    assert tampered.auth == reply.auth  # the stale tag rode along
    assert signer.verify(tampered) == "bad-mac"


# --------------------------------------------------------------- engine


def test_wall_clock_engine_is_a_scheduler():
    assert isinstance(WallClockEngine(), Scheduler)


def test_wall_clock_engine_fires_in_order_and_honours_cancel():
    engine = WallClockEngine()
    fired = []
    engine.schedule_after(0.02, lambda: fired.append("b"))
    engine.schedule_after(0.005, lambda: fired.append("a"))
    doomed = engine.schedule_after(0.01, lambda: fired.append("x"))
    doomed.cancel()
    engine.schedule_after(0.04, engine.stop)
    asyncio.run(engine.run())
    assert fired == ["a", "b"]
    assert engine.events_processed == 3  # a, b, stop — not the cancelled one


def test_wall_clock_engine_periodic_and_negative_delay():
    engine = WallClockEngine()
    ticks = []
    engine.schedule_periodic(0.01, lambda: ticks.append(engine.now))
    engine.schedule_after(0.06, engine.stop)
    asyncio.run(engine.run())
    assert len(ticks) >= 3
    assert ticks == sorted(ticks)
    with pytest.raises(SchedulingError):
        engine.schedule_after(-0.1, lambda: None)


def test_wall_clock_engine_stop_from_callback_does_not_hang():
    """Regression: stop() inside a fired callback must not deadlock the
    pump (the wake flag is set before the sleep that would clear it)."""
    engine = WallClockEngine()
    engine.schedule_after(0.0, engine.stop)

    async def bounded():
        await asyncio.wait_for(engine.run(), timeout=5.0)

    asyncio.run(bounded())


def test_wall_clock_engine_schedule_at_past_clamps_to_now():
    engine = WallClockEngine()
    fired = []
    engine.schedule_at(engine.now - 10.0, lambda: fired.append(True))
    engine.schedule_after(0.02, engine.stop)
    asyncio.run(engine.run())
    assert fired == [True]


# ------------------------------------------------------------------ rtt


def test_rtt_tracker_matches_requests_to_replies():
    clock = [0.0]
    tracker = RttTracker(lambda: clock[0])
    tracker.note_request("S2", 7)
    clock[0] = 0.025
    sample = tracker.note_reply("S2", 7)
    assert sample == pytest.approx(0.025)
    assert tracker.note_reply("S2", 7) is None  # consumed
    assert tracker.note_reply("S9", 1) is None  # never asked
    summary = tracker.summary()
    assert summary["count"] == 1
    assert summary["max"] == pytest.approx(0.025)


def test_rtt_tracker_resend_overwrites_stamp():
    clock = [0.0]
    tracker = RttTracker(lambda: clock[0])
    tracker.note_request("S2", 1)
    clock[0] = 1.0
    tracker.note_request("S2", 1)  # retry of the same request id
    clock[0] = 1.01
    assert tracker.note_reply("S2", 1) == pytest.approx(0.01)


# ---------------------------------------------------------------- proxy


def _frame(source="S1", destination="S2", value=50.0):
    return wire.encode_message(
        TimeReply(
            request_id=1, server=source, destination=destination,
            clock_value=value, error=0.01,
        )
    )


def test_proxy_matches_wildcards():
    """The relay matches endpoints by the DSL's one edge rule."""
    assert touches(MessageTamper(at=0.0), "S1", "S2")
    assert touches(MessageTamper(at=0.0, a="S1"), "S1", "S2")
    assert touches(MessageTamper(at=0.0, a="S1"), "S3", "S1")
    assert touches(LinkFlap(at=0.0, b="S1"), "S3", "S1")
    assert not touches(MessageTamper(at=0.0, a="S9"), "S1", "S2")
    assert touches(MessageTamper(at=0.0, a="S2", b="S1"), "S1", "S2")
    assert not touches(MessageTamper(at=0.0, a="S1", b="S3"), "S1", "S2")
    blackout = ReferenceBlackout(at=0.0, servers=("S3", "S4"))
    assert touches(blackout, "S4", "S1") and not touches(blackout, "S1", "S2")
    assert touches(ReferenceBlackout(at=0.0), "S1", "S2")


def test_proxy_plan_steady_loss_and_windows():
    proxy = ChaosProxy(addresses={}, loss=1.0, seed=1)
    assert proxy.plan("S1", "S2", _frame(), now=0.0) == []
    assert proxy.stats.dropped_loss == 1
    burst = ChaosProxy(
        addresses={},
        events=[LossBurst(at=10.0, probability=1.0, duration=5.0)],
        seed=1,
    )
    assert burst.plan("S1", "S2", _frame(), now=12.0) == []
    # Outside the window the burst does not apply.
    assert len(burst.plan("S1", "S2", _frame(), now=20.0)) == 1


def test_proxy_plan_partition_and_flap():
    proxy = ChaosProxy(
        addresses={},
        events=[
            PartitionFault(at=0.0, groups=(("S1", "S2"), ("S3",)), duration=10.0),
            LinkFlap(at=20.0, a="S1", b="S2", downtime=5.0),
        ],
        seed=0,
    )
    assert proxy.plan("S1", "S3", _frame("S1", "S3"), now=1.0) == []
    assert len(proxy.plan("S1", "S2", _frame(), now=1.0)) == 1
    assert proxy.plan("S1", "S2", _frame(), now=21.0) == []
    assert proxy.stats.dropped_partition == 1
    assert proxy.stats.dropped_flap == 1


def test_proxy_loss_bursts_compose_like_the_simulators_links():
    # Two overlapping 50% bursts lose 1 - 0.5 * 0.5 = 75% (not max = 50%).
    proxy = ChaosProxy(
        addresses={},
        events=[
            LossBurst(at=0.0, probability=0.5, duration=10.0),
            LossBurst(at=0.0, a="S1", probability=0.5, duration=10.0),
        ],
        seed=4,
    )
    lost = sum(not proxy.plan("S1", "S2", _frame(), now=1.0) for _ in range(4000))
    assert lost == proxy.stats.dropped_loss
    assert lost / 4000 == pytest.approx(0.75, abs=0.03)


def test_proxy_plan_delay_duplication_and_tamper():
    proxy = ChaosProxy(
        addresses={},
        events=[
            DelaySpike(at=0.0, scale=1.0, extra=0.2, duration=10.0),
            MessageDuplication(at=0.0, probability=1.0, duration=10.0,
                               extra_delay=0.05),
            MessageTamper(at=0.0, a="S1", offset=0.5, probability=1.0,
                          duration=10.0),
        ],
        seed=0,
    )
    deliveries = proxy.plan("S1", "S2", _frame(value=50.0), now=1.0)
    assert len(deliveries) == 2  # original + duplicate
    payload, delay = deliveries[0]
    assert delay == pytest.approx(0.2)
    assert deliveries[1][1] == pytest.approx(0.25)
    # Taps chain in schedule order, as on the simulator's network: the
    # duplicate is made first, then each copy is tampered with.
    for payload, _ in deliveries:
        assert wire.decode_message(payload).clock_value == pytest.approx(50.5)
    assert proxy.message_faults.stats.messages_tampered == 2
    assert proxy.message_faults.stats.messages_duplicated == 1


def test_proxy_tamper_leaves_requests_alone():
    proxy = ChaosProxy(
        addresses={},
        events=[MessageTamper(at=0.0, probability=1.0, duration=10.0)],
        seed=0,
    )
    request_frame = wire.encode_message(
        TimeRequest(request_id=1, origin="S1", destination="S2")
    )
    [(payload, _)] = proxy.plan("S1", "S2", request_frame, now=1.0)
    assert payload == request_frame


def test_proxy_corruption_damages_the_frame():
    """Corruption garbles a reply's fields (NaN clock, negative error, or a
    huge offset) that validation / rule MM-2 then discards — never
    yields the original message back — and leaves requests alone."""
    proxy = ChaosProxy(
        addresses={},
        events=[MessageCorruption(at=0.0, probability=1.0, duration=10.0)],
        seed=3,
    )
    original = wire.decode_message(_frame())
    for _ in range(8):
        [(corrupted, _)] = proxy.plan("S2", "S1", _frame(), now=1.0)
        decoded = wire.decode_message(corrupted)
        assert corrupted != _frame() and decoded != original
        value = decoded.clock_value
        assert math.isnan(value) or decoded.error < 0 or abs(value - 50.0) >= 1e6
    request = wire.encode_message(TimeRequest(request_id=1, origin="S1", destination="S2"))
    assert proxy.plan("S1", "S2", request, now=1.0) == [(request, 0.0)]
    assert proxy.message_faults.stats.messages_corrupted == 8


# ----------------------------------------------------------- supervision


def test_restart_policy_backoff_progression():
    policy = RestartPolicy(base=0.2, factor=2.0, max_delay=1.5)
    assert policy.delay(0) == pytest.approx(0.2)
    assert policy.delay(1) == pytest.approx(0.4)
    assert policy.delay(2) == pytest.approx(0.8)
    assert policy.delay(5) == pytest.approx(1.5)  # capped

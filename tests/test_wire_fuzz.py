"""Structure-aware fuzzing of the wire and canonical decoders.

Every datagram the live plane receives is attacker-controlled bytes.
Starting from valid frames — requests and replies, signed or not, and
control packets — these properties truncate, splice, flip bytes,
oversize netstring lengths, respell numbers and nest ``repr`` headers,
and require of :func:`~repro.runtime.wire.decode_packet`,
:func:`~repro.runtime.wire.decode_message` and
:func:`~repro.security.auth.canonical_decode` one of exactly two
outcomes: ``ValueError``, or a message that re-encodes to the very
bytes received.  The second half matters because MAC verification
re-encodes canonically: a decoder that accepted a second spelling of a
signed message would let altered bytes verify.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import wire
from repro.security.auth import Keyring, MessageAuthenticator, canonical_decode, canonical_encode
from repro.service.messages import ReplyStatus, RequestKind, TimeReply, TimeRequest

names = st.text(st.characters(min_codepoint=33, max_codepoint=0x24F), min_size=1, max_size=6)
ids = st.integers(min_value=0, max_value=2**62)
floats = st.floats(width=64)
auths = st.one_of(
    st.just(()),
    st.tuples(
        st.integers(0, 2**31), st.integers(0, 2**40), st.text("0123456789abcdef", max_size=32)
    ),
)
# Census ages are finite: repr(inf) is ``inf``, which no reply can carry
# through ``literal_eval`` (such a frame is refused, never misread).
verdicts = st.lists(
    st.tuples(names, names, st.booleans(), st.floats(allow_nan=False, allow_infinity=False)),
    max_size=2,
).map(tuple)

requests = st.builds(
    TimeRequest, request_id=ids, origin=names, destination=names,
    kind=st.sampled_from(RequestKind), nonce=ids, auth=auths,
)
replies = st.builds(
    TimeReply, request_id=ids, server=names, destination=names, clock_value=floats,
    error=floats, kind=st.sampled_from(RequestKind), delta=floats, epoch=ids,
    verdicts=verdicts, status=st.sampled_from(ReplyStatus), retry_after=floats, nonce=ids,
    auth=auths,
)
messages = st.one_of(requests, replies)
controls = st.dictionaries(
    st.text(max_size=4), st.one_of(st.integers(), st.text(max_size=4), st.booleans(), st.none()),
    max_size=3,
)

#: Respellings ``int()`` / ``literal_eval`` accept but the encoder never writes.
RESPELL = [b"+", b"0", b" ", b"-0", b"_"]


def _mutate(data, frame: bytes, other: bytes) -> bytes:
    """One structure-aware mutation of a valid frame."""
    how = data.draw(st.sampled_from(
        ["truncate", "splice", "flip", "oversize", "respell", "nest", "insert"]
    ), label="how")
    cut = data.draw(st.integers(0, len(frame)), label="cut")
    if how == "truncate":
        return frame[:cut]
    if how == "splice":
        return frame[:cut] + other[data.draw(st.integers(0, len(other)), label="from"):]
    if how == "flip" and frame:
        at = min(cut, len(frame) - 1)
        return frame[:at] + bytes([frame[at] ^ data.draw(st.integers(1, 255))]) + frame[at + 1:]
    digits = list(re.finditer(rb"\d+", frame))
    if how in ("oversize", "respell") and digits:
        run = data.draw(st.sampled_from(digits), label="digits")
        if how == "oversize":
            spelled = b"%d" % (int(run.group()) + data.draw(st.integers(1, 2**20)))
        else:
            spelled = data.draw(st.sampled_from(RESPELL)) + run.group()
            if spelled.startswith(b"_"):
                spelled = run.group()[:1] + b"_" + run.group()[1:]
        return frame[: run.start()] + spelled + frame[run.end():]
    if how == "nest":
        depth = data.draw(st.integers(1, 400), label="depth")
        header = b"(" * depth + b")" * depth
        body = frame
        if frame[:1] == b"R":  # keep the payload, replace the auth header
            colon = frame.index(b":")
            body = frame[colon + 1 + int(frame[1:colon]):]
        return b"R%d:%s%s" % (len(header), header, body)
    return frame[:cut] + data.draw(st.binary(max_size=4)) + frame[cut:]


def _only_canonical(decode, encode, data: bytes) -> None:
    try:
        decoded = decode(data)
    except ValueError:
        return
    assert encode(decoded) == data, f"accepted a non-canonical frame {data!r}"


def _encode_packet(packet) -> bytes:
    kind, value = packet
    return wire.encode_message(value) if kind == "message" else wire.encode_control(value)


FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestDecodersAcceptOnlyCanonicalFrames:
    @FUZZ
    @given(message=messages, other=messages, data=st.data())
    def test_decode_message(self, message, other, data):
        frame = _mutate(data, wire.encode_message(message), wire.encode_message(other))
        _only_canonical(wire.decode_message, wire.encode_message, frame)

    @FUZZ
    @given(message=messages, control=controls, data=st.data())
    def test_decode_packet(self, message, control, data):
        frames = [wire.encode_message(message), wire.encode_control(control)]
        if data.draw(st.booleans(), label="control first"):
            frames.reverse()
        _only_canonical(wire.decode_packet, _encode_packet, _mutate(data, *frames))

    @FUZZ
    @given(message=messages, other=messages, data=st.data())
    def test_canonical_decode(self, message, other, data):
        frame = _mutate(data, canonical_encode(message), canonical_encode(other))
        _only_canonical(canonical_decode, canonical_encode, frame)

    @FUZZ
    @given(message=messages)
    def test_valid_frames_round_trip(self, message):
        frame = wire.encode_message(message)
        assert wire.encode_message(wire.decode_message(frame)) == frame


def _reply(**fields) -> TimeReply:
    return TimeReply(request_id=5, server="S1", destination="S2", clock_value=1.5,
                     error=0.01, nonce=7, **fields)


@pytest.mark.parametrize(
    "header",
    [b"(1,2,'ab')", b'(1, 2, "ab")', b"(1, 2, 'ab',)", b"( )", b"(True, 2, 'ab')"],
)
def test_wire_refuses_respelled_auth_headers(header):
    body = canonical_encode(_reply())
    with pytest.raises(ValueError):
        wire.decode_message(b"R%d:%s%s" % (len(header), header, body))


@pytest.mark.parametrize("length", [b"+12", b"1_2", b" 12", b"012"])
def test_wire_refuses_respelled_header_lengths(length):
    frame = wire.encode_message(_reply(auth=(1, 2, "ab")))
    assert frame.startswith(b"R12:")
    respelled = b"R" + length + frame[3:]
    with pytest.raises(ValueError):
        wire.decode_message(respelled)


@pytest.mark.parametrize(
    "old, new",
    [(b"|5|7|", b"|+5|7|"), (b"|5|7|", b"|05|7|"), (b"|5|7|", b"| 5|7|"),
     (b"2:S1", b"+2:S1"), (b"2:()", b"3:( )")],
)
def test_canonical_decode_refuses_respellings_that_would_verify(old, new):
    """Each respelling decodes to the signed message under the old
    decoder, and MAC verification re-encodes canonically — so the altered
    bytes verified ``"ok"``.  Now they never become a message."""
    signer = MessageAuthenticator(Keyring.from_secret("fuzz"))
    signed = signer.sign(_reply())
    encoded = canonical_encode(signed)
    assert old in encoded
    with pytest.raises(ValueError):
        canonical_decode(encoded.replace(old, new, 1))

"""UDP packet framing over the canonical message encoding.

The security layer already defines an injective byte encoding of every
semantic message field (:func:`repro.security.auth.canonical_encode`,
proven injective by the property suite) — the MAC covers exactly those
bytes.  The wire format reuses it verbatim so that **what is signed is
what is sent**: an on-path rewrite of any field (the
:class:`~repro.runtime.proxy.ChaosProxy` decodes a datagram, lets the
fault interpreter's tamper tap shift ``clock_value``, and re-encodes it
under the original auth header) necessarily invalidates the MAC on the
authenticated arm, with no gap between the wire bytes and the signed
bytes for an attacker to hide in.  The converse holds too: every
decoder here accepts only the canonical spelling (a decoded packet
re-encodes to exactly the bytes received), so no respelled frame —
``+5`` for ``5``, a re-spaced header — can decode to a signed message
whose MAC it never carried.

Frame layout (one datagram per message, loopback MTU is ample):

* data packet — ``b"R" + netstring(repr(auth)) + canonical_encode(msg)``
  where ``auth`` is the message's ``(key_id, seq, mac)`` tuple (or
  ``()`` unauthenticated);
* control packet — ``b"C" + JSON`` for the supervisor's out-of-band
  ping/stats/drain plane (never routed through the proxy, never
  authenticated — it is localhost operational tooling, not protocol).
"""

from __future__ import annotations

import ast
import dataclasses
import json
from typing import Any, Dict, Tuple, Union

from ..security.auth import canonical_decode, canonical_encode
from ..service.messages import TimeReply, TimeRequest

__all__ = [
    "decode_control",
    "decode_message",
    "decode_packet",
    "encode_control",
    "encode_message",
    "packet_kind",
]

Message = Union[TimeRequest, TimeReply]

_DATA = b"R"
_CONTROL = b"C"


def encode_message(message: Message) -> bytes:
    """One datagram: auth header + the canonical (signed) payload bytes."""
    auth = tuple(message.auth)
    header = repr(auth).encode("ascii")
    return _DATA + b"%d:%s" % (len(header), header) + canonical_encode(message)


def decode_message(data: bytes) -> Message:
    """Invert :func:`encode_message`.

    Only the canonical frame is accepted — the decoded message always
    re-encodes to exactly ``data`` — so the header, like the payload,
    has one spelling per message.

    Raises:
        ValueError: On anything that is not a well-formed data packet
            (truncation, bad or non-canonical auth header, non-canonical
            payload).
    """
    if data[:1] != _DATA:
        raise ValueError(f"not a data packet: leading byte {data[:1]!r}")
    colon = data.index(b":", 1)
    field = data[1:colon]
    length = int(field)
    if b"%d" % length != field or length < 0 or colon + 1 + length > len(data):
        raise ValueError("bad auth header length")
    try:
        header = data[colon + 1 : colon + 1 + length].decode("ascii")
        auth = ast.literal_eval(header)
    except Exception as exc:
        raise ValueError(f"unparseable auth header: {exc}") from exc
    if not isinstance(auth, tuple) or repr(auth) != header:
        raise ValueError("auth header is not a canonical tuple repr")
    message = canonical_decode(data[colon + 1 + length :])
    if not auth:
        return message
    if (
        len(auth) != 3
        or type(auth[0]) is not int
        or type(auth[1]) is not int
        or type(auth[2]) is not str
    ):
        raise ValueError("auth header is not (key_id, seq, mac)")
    return dataclasses.replace(message, auth=auth)


def encode_control(payload: Dict[str, Any]) -> bytes:
    """One control datagram (compact JSON, sorted keys)."""
    return _CONTROL + json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def decode_control(data: bytes) -> Dict[str, Any]:
    """Invert :func:`encode_control`.

    Raises:
        ValueError: When the bytes are not a control packet holding a
            JSON object in :func:`encode_control`'s own spelling.
    """
    if data[:1] != _CONTROL:
        raise ValueError(f"not a control packet: leading byte {data[:1]!r}")
    try:
        payload = json.loads(data[1:].decode("utf-8"))
    except Exception as exc:
        raise ValueError(f"unparseable control payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("control payload is not an object")
    if encode_control(payload) != data:
        raise ValueError("control payload is not canonical JSON")
    return payload


def packet_kind(data: bytes) -> str:
    """``"message"``, ``"control"``, or ``"unknown"`` (cheap dispatch)."""
    lead = data[:1]
    if lead == _DATA:
        return "message"
    if lead == _CONTROL:
        return "control"
    return "unknown"


def decode_packet(data: bytes) -> Tuple[str, Any]:
    """Decode any packet: ``("message", msg)`` or ``("control", dict)``.

    Raises:
        ValueError: On unknown leading bytes or malformed payloads.
    """
    kind = packet_kind(data)
    if kind == "message":
        return kind, decode_message(data)
    if kind == "control":
        return kind, decode_control(data)
    raise ValueError(f"unknown packet type {data[:1]!r}")

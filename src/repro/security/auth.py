"""Keyed-MAC message authentication over a canonical wire encoding.

The simulator's messages are in-memory dataclasses, so "authentication"
here means exactly what it would over a real socket: a deterministic
byte encoding of every semantic field, a keyed-BLAKE2b tag (RFC 7693's
built-in MAC mode — one C call, ~3× cheaper than two-pass HMAC) over
those bytes keyed from a per-cluster keyring, and a verdict lattice
(``ok`` / ``missing-auth`` / ``unknown-key`` / ``bad-mac``) the server
layer maps onto its quarantine machinery.

The canonical encoding is built for the hot path (every wire message is
signed and verified): variable-length strings are netstring-framed
(``len:bytes``, self-delimiting, so no byte of a name can masquerade as
a separator), floats are fixed-width IEEE-754 doubles via ``struct``
(exact — no shortest-repr work), and the fields that are constant per
conversation (names, kind, status) form a cached prefix so steady-state
encoding only formats the per-message tail.  :func:`canonical_decode`
inverts it, which the property suite uses to prove the encoding is
injective on the message space: any single-byte change to the encoding
is a different message, and the MAC covers every byte.

Keys live in a :class:`Keyring`: numbered keys, one active signing key,
rotation retaining old keys for verification (messages in flight across
a rotation still verify), and explicit retirement for compromised ids.
"""

from __future__ import annotations

import ast
import hashlib
import hmac
import struct
from typing import Dict, Optional, Tuple, Union

from ..service.messages import ReplyStatus, RequestKind, TimeReply, TimeRequest

__all__ = [
    "AuthVerdict",
    "Keyring",
    "MessageAuthenticator",
    "canonical_decode",
    "canonical_encode",
]

#: Hex characters kept from the 128-bit keyed-BLAKE2b tag (the wire
#: budget of a real packet MAC, far beyond the simulator's needs).
MAC_HEX_LENGTH = 32

Message = Union[TimeRequest, TimeReply]

#: Verdict strings returned by :meth:`MessageAuthenticator.verify`.
AuthVerdict = str


#: Fixed-width tail of a reply encoding: clock_value, error, δ, retry_after.
_REPLY_TAIL = struct.Struct("<dddd")

#: Per-conversation prefix cache (the constant fields of a message
#: stream).  Bounded: cleared wholesale when adversarial/randomized
#: traffic (e.g. the property suite) floods it with one-shot prefixes.
_PREFIX_CACHE: Dict[tuple, bytes] = {}
_PREFIX_CACHE_MAX = 4096


def _netstr(value: str) -> bytes:
    raw = value.encode("utf-8")
    return b"%d:%s" % (len(raw), raw)


def _cache_prefix(key: tuple, prefix: bytes) -> bytes:
    if len(_PREFIX_CACHE) >= _PREFIX_CACHE_MAX:
        _PREFIX_CACHE.clear()
    _PREFIX_CACHE[key] = prefix
    return prefix


def canonical_encode(message: Message) -> bytes:
    """The canonical byte encoding of a message, excluding ``auth``.

    Every semantic field is included (the MAC must cover the nonce, the
    routing names, and the payload alike); the ``auth`` tag itself is
    excluded so signing is well-defined.
    """
    if type(message) is TimeRequest:
        key = ("Q", message.origin, message.destination, message.kind)
        prefix = _PREFIX_CACHE.get(key)
        if prefix is None:
            prefix = _cache_prefix(
                key,
                b"Q|"
                + _netstr(message.origin)
                + _netstr(message.destination)
                + _netstr(message.kind.value),
            )
        return prefix + b"|%d|%d" % (message.request_id, message.nonce)
    if type(message) is TimeReply:
        key = (
            "P",
            message.server,
            message.destination,
            message.kind,
            message.status,
            message.verdicts,
            message.epoch,
        )
        prefix = _PREFIX_CACHE.get(key)
        if prefix is None:
            prefix = _cache_prefix(
                key,
                b"P|"
                + _netstr(message.server)
                + _netstr(message.destination)
                + _netstr(message.kind.value)
                + _netstr(message.status.value)
                + _netstr(repr(tuple(message.verdicts)))
                + b"|%d" % message.epoch,
            )
        return (
            prefix
            + b"|%d|%d|" % (message.request_id, message.nonce)
            + _REPLY_TAIL.pack(
                message.clock_value,
                message.error,
                message.delta,
                message.retry_after,
            )
        )
    raise TypeError(f"cannot encode {type(message).__name__}")


def _take_netstr(encoded: bytes, pos: int) -> Tuple[str, int]:
    colon = encoded.index(b":", pos)
    length = int(encoded[pos:colon])
    if length < 0:
        raise ValueError("negative netstring length")
    end = colon + 1 + length
    if end > len(encoded):
        raise ValueError("truncated netstring")
    return encoded[colon + 1 : end].decode("utf-8"), end


def canonical_decode(encoded: bytes) -> Message:
    """Invert :func:`canonical_encode` (the ``auth`` field comes back empty).

    Only the canonical spelling is accepted: ``int`` alone would take
    ``+5``, ``05`` or `` 7`` and ``literal_eval`` would take ``( )``, and
    since MAC verification re-encodes canonically, such altered bytes
    would verify.  Re-encoding and comparing closes every such gap at
    once, for about the cost of one encode (the prefix is cached).

    Raises:
        ValueError: If the bytes are not a canonical message encoding.
    """
    try:
        message = _decode(encoded)
    except ValueError:
        raise
    except Exception as exc:  # index/struct/unicode/enum errors → malformed
        raise ValueError(f"not a canonical encoding: {exc}") from exc
    if canonical_encode(message) != encoded:
        raise ValueError("not the canonical encoding of the message it spells")
    return message


def _decode(encoded: bytes) -> Message:
    if encoded[:2] == b"Q|":
        origin, pos = _take_netstr(encoded, 2)
        destination, pos = _take_netstr(encoded, pos)
        kind, pos = _take_netstr(encoded, pos)
        blank, request_id, nonce = encoded[pos:].split(b"|")
        if blank:
            raise ValueError("malformed request tail")
        return TimeRequest(
            request_id=int(request_id),
            origin=origin,
            destination=destination,
            kind=RequestKind(kind),
            nonce=int(nonce),
        )
    if encoded[:2] == b"P|":
        server, pos = _take_netstr(encoded, 2)
        destination, pos = _take_netstr(encoded, pos)
        kind, pos = _take_netstr(encoded, pos)
        status, pos = _take_netstr(encoded, pos)
        verdicts_repr, pos = _take_netstr(encoded, pos)
        verdicts = ast.literal_eval(verdicts_repr)
        if not isinstance(verdicts, tuple):
            raise ValueError("verdicts field is not a tuple")
        tail = encoded[pos:]
        head, floats = tail[: -_REPLY_TAIL.size], tail[-_REPLY_TAIL.size :]
        blank, epoch, request_id, nonce, trailer = head.split(b"|")
        if blank or trailer:
            raise ValueError("malformed reply tail")
        clock_value, error, delta, retry_after = _REPLY_TAIL.unpack(floats)
        return TimeReply(
            request_id=int(request_id),
            server=server,
            destination=destination,
            clock_value=clock_value,
            error=error,
            kind=RequestKind(kind),
            delta=delta,
            epoch=int(epoch),
            verdicts=verdicts,
            status=ReplyStatus(status),
            retry_after=retry_after,
            nonce=int(nonce),
        )
    raise ValueError(f"not a canonical encoding: bad tag {encoded[:2]!r}")


class Keyring:
    """The cluster's shared MAC keys: numbered, rotated, retireable.

    Args:
        keys: Initial ``{key_id: secret bytes}`` map; must be non-empty.
        active_id: The signing key's id (defaults to the highest id).
    """

    def __init__(
        self, keys: Dict[int, bytes], active_id: Optional[int] = None
    ) -> None:
        if not keys:
            raise ValueError("a keyring needs at least one key")
        self._keys = dict(keys)
        self.active_id = max(keys) if active_id is None else active_id
        if self.active_id not in self._keys:
            raise ValueError(f"active key {self.active_id} not in keyring")
        #: Counts rotations — exported as the key-epoch gauge.
        self.epoch = 0

    @classmethod
    def from_secret(cls, secret: str, *, cluster: str = "repro") -> "Keyring":
        """A one-key ring derived deterministically from a shared secret."""
        key = hashlib.sha256(f"{cluster}|{secret}|1".encode("utf-8")).digest()
        return cls({1: key})

    def key(self, key_id: int) -> Optional[bytes]:
        """The secret for ``key_id``, or None when unknown/retired."""
        return self._keys.get(key_id)

    @property
    def active_key(self) -> bytes:
        return self._keys[self.active_id]

    @property
    def key_ids(self) -> tuple:
        return tuple(sorted(self._keys))

    def rotate(self, new_key: Optional[bytes] = None) -> int:
        """Install a fresh signing key; old keys stay valid for verify.

        Returns:
            The new active key id.
        """
        new_id = max(self._keys) + 1
        if new_key is None:
            # Deterministic forward derivation — good enough for the
            # simulator (a deployment would distribute fresh randomness).
            new_key = hashlib.sha256(
                b"rotate|%d|" % new_id + self._keys[self.active_id]
            ).digest()
        self._keys[new_id] = new_key
        self.active_id = new_id
        self.epoch += 1
        return new_id

    def retire(self, key_id: int) -> None:
        """Drop a (compromised) key; messages signed with it stop verifying.

        Raises:
            ValueError: When retiring the active signing key.
        """
        if key_id == self.active_id:
            raise ValueError("cannot retire the active signing key")
        self._keys.pop(key_id, None)


def _with_auth(message: Message, auth: tuple) -> Message:
    """A copy of ``message`` with ``auth`` swapped — the hot-path version
    of ``dataclasses.replace`` (which re-runs ``__init__`` and costs an
    order of magnitude more; signing is per message on the hot path).
    """
    clone = object.__new__(type(message))
    clone.__dict__.update(message.__dict__)
    clone.__dict__["auth"] = auth
    return clone


class MessageAuthenticator:
    """Signs and verifies messages against a shared :class:`Keyring`.

    One instance per server; the signing sequence number is per-instance
    (it feeds the receiver's replay guard, so two servers must never
    share a sequence).  Tags are keyed BLAKE2b (one C call), so the hot
    path is a single hash pass over the payload.
    """

    def __init__(self, keyring: Keyring) -> None:
        self.keyring = keyring
        self._seq = 0

    @property
    def signed(self) -> int:
        """How many messages this instance has signed."""
        return self._seq

    def _mac(self, key_id: int, seq: int, payload: bytes) -> Optional[str]:
        key = self.keyring.key(key_id)
        if key is None:
            return None  # unknown or retired key
        return hashlib.blake2b(
            b"%s|%d|%d" % (payload, key_id, seq),
            key=key,
            digest_size=MAC_HEX_LENGTH // 2,
        ).hexdigest()

    def sign(self, message: Message) -> Message:
        """The message with a fresh ``(key_id, seq, mac)`` tag attached."""
        self._seq += 1
        key_id = self.keyring.active_id
        # canonical_encode never reads ``auth``, so signing needs no
        # auth-stripped intermediate copy.
        mac = self._mac(key_id, self._seq, canonical_encode(message))
        assert mac is not None  # the active key always exists
        return _with_auth(message, (key_id, self._seq, mac))

    def verify(self, message: Message) -> AuthVerdict:
        """``"ok"``, ``"missing-auth"``, ``"unknown-key"``, or ``"bad-mac"``."""
        auth = message.auth
        if (
            not isinstance(auth, tuple)
            or len(auth) != 3
            or not isinstance(auth[0], int)
            or not isinstance(auth[1], int)
            or not isinstance(auth[2], str)
        ):
            return "missing-auth"
        key_id, seq, claimed = auth
        expected = self._mac(key_id, seq, canonical_encode(message))
        if expected is None:
            return "unknown-key"
        if not hmac.compare_digest(expected, claimed):
            return "bad-mac"
        return "ok"

"""Wire messages of the time service.

The protocol is the paper's: a :class:`TimeRequest` asks a server for the
time; a :class:`TimeReply` carries the pair ``<C_j(t), E_j(t)>`` computed by
rule MM-1 at the instant the request is answered.  Requests are tagged with
a purpose so the receiving *requester* can route the reply:

* ``poll`` — a rule MM-2 / IM-2 synchronization round;
* ``client`` — an application asking the time;
* ``recovery`` — a Section 3 third-server recovery fetch.

Messages are immutable value objects; everything mutable lives in the
server/client state machines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.intervals import TimeInterval


class RequestKind(enum.Enum):
    """Why a time request was sent (drives reply routing at the requester)."""

    POLL = "poll"
    CLIENT = "client"
    RECOVERY = "recovery"


class ReplyStatus(enum.Enum):
    """How a reply was produced — the overload subsystem's extension.

    The paper's servers answer every request instantly and for free, so
    every reply is ``OK``.  A :class:`~repro.load.server.LoadStage`
    can instead shed or degrade under load:

    * ``OK`` — a fresh rule MM-1 answer (the paper's reply).
    * ``DEGRADED`` — served from the overload cache: a stale ``⟨C, E⟩``
      whose error was inflated by ``ρ·age`` so the interval still contains
      the true time (Theorem 1 correctness preserved, accuracy shed).
    * ``BUSY`` — no time at all: the request was shed by admission
      control; ``retry_after`` hints when to try again.  A BUSY reply's
      ``clock_value``/``error`` fields are meaningless and must never be
      fed to a synchronization policy or a client combination rule.
    """

    OK = "ok"
    DEGRADED = "degraded"
    BUSY = "busy"


@dataclass(frozen=True)
class TimeRequest:
    """A request for the time.

    Attributes:
        request_id: Requester-local identifier echoed in the reply; for
            poll rounds this is the round number.
        origin: Name of the requesting process.
        destination: Name of the server being asked (lets one broadcast
            build per-destination copies).
        kind: Purpose of the request.
        nonce: Per-request freshness token drawn by the requester and
            echoed verbatim in the reply.  Reply acceptance is keyed on
            it (not just the round id), so a recorded or re-delivered
            reply from an earlier exchange can never be double-counted
            even if its ``request_id`` happens to collide.  ``0`` means
            "no nonce" (client queries, legacy tests).
        auth: Authentication tag ``(key_id, seq, mac)`` attached by the
            security layer (:mod:`repro.security.auth`); empty when the
            cluster runs unauthenticated.
    """

    request_id: int
    origin: str
    destination: str
    kind: RequestKind = RequestKind.POLL
    nonce: int = 0
    auth: tuple = ()


@dataclass(frozen=True)
class TimeReply:
    """A server's answer: the rule MM-1 pair ``<C_j, E_j>``.

    Attributes:
        request_id: Echo of the request's identifier.
        server: Name of the answering server ``S_j``.
        destination: Name of the requester (echo of ``origin``).
        clock_value: ``C_j(t)`` at the instant of answering.
        error: ``E_j(t)`` at the instant of answering.
        kind: Echo of the request kind.
        delta: The answering server's claimed maximum drift rate ``δ_j``.
            Not used by rules MM-2/IM-2 (the paper's replies carry only
            ``<C, E>``), but needed by the Section 5 consonance machinery,
            whose predicate is ``|rate| <= δ_i + δ_j``.
        epoch: The answering server's consistency-group merge epoch
            (0 for servers without the recovery subsystem); lets the
            stabilizer prefer arbiters from recently-consolidated groups.
        verdicts: Piggybacked consistency-census gossip — a tuple of
            ``(observer, subject, ok, age)`` quadruples (empty for servers
            without the recovery subsystem).  See
            :mod:`repro.recovery.census`.
        status: How the reply was produced (see :class:`ReplyStatus`);
            always ``OK`` for the paper's servers.
        retry_after: For ``BUSY`` replies: the server's hint, in seconds,
            of how long the requester should back off before retrying
            (0 when the server has no estimate).
        nonce: Echo of the request's freshness nonce (0 when the request
            carried none).
        auth: Authentication tag ``(key_id, seq, mac)`` attached by the
            security layer; empty when the cluster runs unauthenticated.
    """

    request_id: int
    server: str
    destination: str
    clock_value: float
    error: float
    kind: RequestKind = RequestKind.POLL
    delta: float = 0.0
    epoch: int = 0
    verdicts: tuple = ()
    status: ReplyStatus = ReplyStatus.OK
    retry_after: float = 0.0
    nonce: int = 0
    auth: tuple = ()

    @property
    def interval(self) -> TimeInterval:
        """The reply as the interval ``[C_j - E_j, C_j + E_j]``."""
        return TimeInterval.from_center_error(self.clock_value, self.error)

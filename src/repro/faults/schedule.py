"""A declarative, deterministic fault-schedule DSL.

A :class:`FaultSchedule` is a timeline of typed fault events — the chaos
experiments' single source of truth.  Schedules can be written by hand::

    schedule = (
        FaultSchedule()
        .add(LinkFlap(at=120.0, a="S1", b="S2", downtime=30.0))
        .add(ByzantineReplies(at=300.0, server="S3", duration=120.0,
                              offset=0.4, error_scale=0.1))
    )

or sampled from a seeded RNG for soak runs::

    schedule = FaultSchedule.random(
        seed=7, names=names, edges=edges, horizon=3600.0
    )

Events are frozen dataclasses; the schedule itself is just sorted data,
plus the one rule every reader applies to an event's endpoints
(:func:`touches`).  Interpretation lives in two places, one per kind of
event: the message-level kinds are read once, by
:class:`~repro.faults.messages.MessageFaults`, whose taps both planes
run; link, server, checkpoint and topology kinds are realised by the
simulator's :class:`~repro.faults.injector.FaultInjector`, and the live
:class:`~repro.runtime.proxy.ChaosProxy` realises the link kinds as
on-path gates and refuses the rest by name (docs/runtime.md has the
per-kind table).  :meth:`FaultSchedule.signature` gives a stable
fingerprint used by the deterministic-replay tests (same seed ⇒
identical timeline).

Event menu (mirroring the failure modes of Section 1.1 plus the network
pathologies the paper assumes away):

=====================  =====================================================
:class:`LinkFlap`      link goes down, comes back after ``downtime``
:class:`DelaySpike`    one link's delays scaled/offset for a window
:class:`LossBurst`     extra message loss on one link for a window
:class:`PartitionFault` the network splits into groups, heals after a while
:class:`ReferenceBlackout` every link touching the named servers goes dark
:class:`TotalPartition`  every server isolated from every other (worst case)
:class:`MessageCorruption` replies garbled in flight (NaN/garbage fields)
:class:`MessageDuplication` messages delivered twice
:class:`MessageReorder` messages randomly delayed so later ones overtake
:class:`ServerCrash`   server leaves, rejoins later with a fresh error
:class:`CheckpointCorruption` server's stored checkpoint is garbled in place
:class:`TornCheckpoint` server's next checkpoint write persists torn
:class:`ClockStep`     clock silently jumps (server bookkeeping unaware)
:class:`ClockFreeze`   clock stops for a window ("stopping" failure)
:class:`ClockRace`     clock races beyond its claimed δ for a window
:class:`ByzantineReplies` server's replies lie: offset added, error
                       underreported — the adversary of the Byzantine
                       clock-sync literature
:class:`EdgeChurn`     an edge is added to / removed from the live graph
:class:`TopologyRewire` the live edge set is replaced wholesale
:class:`MobilityTrace` a server moves; the proximity graph rewires
:class:`MessageTamper` on-path adversary rewrites reply clock values
:class:`MessageReplay` on-path adversary re-delivers captured replies later
:class:`DelayAttack`   on-path adversary substitutes held-back stale data
                       for fresh replies, delivered implausibly fast
:class:`SpoofedReply`  off-link adversary races forged replies to a victim
=====================  =====================================================

Every "edge ``(a, b)``" below is matched by :func:`touches`, so an empty
endpoint is a wildcard.  ``EdgeChurn``, ``TopologyRewire`` and
``MobilityTrace`` mutate the topology itself (Section 1.1's unstable
membership taken literally); they require the injector to be attached to
a :class:`~repro.dynamic.topology.DynamicTopology` and are skipped with a
trace note otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one typed fault at absolute real time ``at``."""

    at: float

    @property
    def kind(self) -> str:
        """Machine-readable event kind (the class name)."""
        return type(self).__name__

    def describe(self) -> str:
        """One-line human-readable rendering, stable across runs."""
        parts = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if f.name != "at"
        )
        return f"t={self.at:.3f} {self.kind}({parts})"


def touches(event: FaultEvent, source: str, destination: str) -> bool:
    """Whether ``event`` applies to the edge ``source``–``destination``.

    The DSL's one edge rule, for every event with ``a``/``b`` endpoints
    (and :class:`ReferenceBlackout`'s ``servers``), on both planes:
    ``a`` and ``b`` both set name one edge, unordered; named servers
    alone mean every edge touching any of them; no name means every
    edge.
    """
    a, b = getattr(event, "a", ""), getattr(event, "b", "")
    if a and b:
        return {a, b} == {source, destination}
    named = (a or b,) if a or b else getattr(event, "servers", ())
    return not named or source in named or destination in named


# --------------------------------------------------------------- link faults


@dataclass(frozen=True)
class LinkFlap(FaultEvent):
    """Edge ``(a, b)`` goes down at ``at`` and back up after ``downtime``."""

    a: str = ""
    b: str = ""
    downtime: float = 10.0


@dataclass(frozen=True)
class DelaySpike(FaultEvent):
    """Edge ``(a, b)`` delays scaled by ``scale`` (+``extra`` s) for
    ``duration`` seconds — congestion, not disconnection."""

    a: str = ""
    b: str = ""
    scale: float = 4.0
    extra: float = 0.0
    duration: float = 60.0


@dataclass(frozen=True)
class LossBurst(FaultEvent):
    """Extra loss ``probability`` on edge ``(a, b)`` for ``duration`` s."""

    a: str = ""
    b: str = ""
    probability: float = 0.5
    duration: float = 60.0


@dataclass(frozen=True)
class PartitionFault(FaultEvent):
    """The network splits into ``groups`` for ``duration`` seconds."""

    groups: Tuple[Tuple[str, ...], ...] = ()
    duration: float = 120.0


@dataclass(frozen=True)
class ReferenceBlackout(FaultEvent):
    """Every link adjacent to the named ``servers`` goes dark for
    ``duration`` seconds.

    The holdover scenario: the listed servers (typically the reference
    masters) become unreachable while the rest of the topology stays
    connected, so downstream servers lose their sources without any
    partition of their own.  Link take-downs are reference-counted
    against overlapping :class:`LinkFlap` windows.
    """

    duration: float = 120.0
    servers: Tuple[str, ...] = ()


@dataclass(frozen=True)
class TotalPartition(FaultEvent):
    """Every server isolated from every other for ``duration`` seconds.

    The worst-case blackout: no server has any source, so the whole
    service must ride through on holdover.  Implemented as a partition
    into singleton groups (shares :class:`PartitionFault`'s heal
    refcount, so overlapping windows extend the outage).
    """

    duration: float = 120.0


# ------------------------------------------------------------ message faults


@dataclass(frozen=True)
class MessageCorruption(FaultEvent):
    """Each reply is garbled with ``probability`` for ``duration`` s.

    Corruption is gross by design (NaN fields, sign flips, huge offsets):
    it models bit rot and broken serializers, which reply validation must
    reject — subtle adversarial lying is :class:`ByzantineReplies`.
    """

    probability: float = 0.2
    duration: float = 120.0


@dataclass(frozen=True)
class MessageDuplication(FaultEvent):
    """Each message is delivered twice with ``probability`` for a window;
    the duplicate arrives ``extra_delay`` seconds after the original."""

    probability: float = 0.3
    duration: float = 120.0
    extra_delay: float = 0.05


@dataclass(frozen=True)
class MessageReorder(FaultEvent):
    """Messages are randomly held back up to ``max_extra`` seconds with
    ``probability`` for a window, letting later messages overtake."""

    probability: float = 0.3
    duration: float = 120.0
    max_extra: float = 0.2


# ------------------------------------------------------------- server faults


@dataclass(frozen=True)
class ServerCrash(FaultEvent):
    """``server`` crashes (leaves) at ``at`` and rejoins after ``downtime``
    with inherited error ``rejoin_error`` (operator-set clock)."""

    server: str = ""
    downtime: float = 120.0
    rejoin_error: float = 2.0


@dataclass(frozen=True)
class CheckpointCorruption(FaultEvent):
    """``server``'s stored checkpoint is garbled in place (bit rot).

    Only meaningful for services with a stable store
    (:class:`~repro.recovery.store.StableStore`); the injector skips it
    otherwise.  The next restart must detect the checksum mismatch and
    fall back to a cold start.
    """

    server: str = ""


@dataclass(frozen=True)
class TornCheckpoint(FaultEvent):
    """``server``'s *next* checkpoint write is torn (crash mid-write).

    The store persists only a prefix of the record; the next restart must
    detect it and fall back to a cold start.
    """

    server: str = ""


@dataclass(frozen=True)
class ClockStep(FaultEvent):
    """``server``'s clock silently jumps by ``offset`` seconds.

    The server's error bookkeeping is *not* told — exactly the hazard of a
    clock that changes value behind the algorithm's back.
    """

    server: str = ""
    offset: float = 0.5


@dataclass(frozen=True)
class ClockFreeze(FaultEvent):
    """``server``'s clock stops for ``duration`` seconds, then resumes
    from its frozen value (permanently behind)."""

    server: str = ""
    duration: float = 60.0


@dataclass(frozen=True)
class ClockRace(FaultEvent):
    """``server``'s clock races at ``1 + skew`` for ``duration`` seconds —
    a drift-bound violation (the paper's "racing ahead" failure)."""

    server: str = ""
    skew: float = 0.01
    duration: float = 60.0


@dataclass(frozen=True)
class ByzantineReplies(FaultEvent):
    """``server`` lies in every reply for ``duration`` seconds.

    Its reported clock value is shifted by ``offset`` and its reported
    error multiplied by ``error_scale`` (< 1 = underreporting, making the
    lie look precise and attractive to interval policies).
    """

    server: str = ""
    duration: float = 120.0
    offset: float = 0.5
    error_scale: float = 0.2


# ----------------------------------------------------------- topology faults


@dataclass(frozen=True)
class EdgeChurn(FaultEvent):
    """Edge ``(a, b)`` is added to (``action="add"``) or removed from
    (``action="remove"``) the live topology.

    Unlike :class:`LinkFlap` — which leaves the edge in place and marks
    its link down — edge churn changes the *graph itself*: neighbour
    sets, poll targets, and the connectivity assumption all shift.
    Interpretation requires the injector to be attached to a
    :class:`~repro.dynamic.topology.DynamicTopology`; it is skipped (with
    a trace note) otherwise.
    """

    a: str = ""
    b: str = ""
    action: str = "remove"


@dataclass(frozen=True)
class TopologyRewire(FaultEvent):
    """The live edge set is replaced wholesale by ``edges``.

    Models a routing reconfiguration: edges in ``edges`` but not in the
    graph are added, edges in the graph but not in ``edges`` are removed
    (subject to the dynamic layer's connectivity guard, which retains a
    minimal backbone of old edges rather than disconnect the service).
    """

    edges: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class MobilityTrace(FaultEvent):
    """``server`` moves to position ``(x, y)`` in the mobility plane.

    A waypoint pin for replaying recorded mobility traces: the dynamic
    layer re-places the server and immediately rewires the proximity
    graph around its new position.  Requires a mobility model attached to
    the injector's :class:`~repro.dynamic.topology.DynamicTopology`.
    """

    server: str = ""
    x: float = 0.0
    y: float = 0.0


# ---------------------------------------------------------- on-path faults


@dataclass(frozen=True)
class MessageTamper(FaultEvent):
    """An on-path adversary rewrites poll replies crossing edge ``(a, b)``.

    Each :class:`~repro.service.messages.TimeReply` crossing the edge
    (either direction; see :func:`touches` for empty endpoints) has its
    reported clock value shifted by ``offset`` with ``probability``, for
    ``duration`` seconds.  The authentication tag — if any — is left
    as-is, so on an authenticated cluster the tamper is exactly what a
    MAC exists to catch; on a plain cluster the forged value sails
    through any validation it can stay plausible against.
    """

    a: str = ""
    b: str = ""
    offset: float = 0.3
    probability: float = 1.0
    duration: float = 120.0


@dataclass(frozen=True)
class MessageReplay(FaultEvent):
    """An on-path adversary records traffic on edge ``(a, b)`` and
    re-delivers verbatim copies ``hold`` seconds later.

    Each captured message — requests and replies alike, with
    ``probability``, for ``duration`` seconds — still reaches its
    destination normally; the attack is the *extra* delivery.  A
    replayed reply carries an earlier round's (staler, smaller-error)
    claim; a replayed request makes the server do work (and emit a
    signed reply) for an exchange the peer never initiated.  Defended
    by per-request nonces, strictly increasing round ids, and the
    per-peer anti-replay sequence window.
    """

    a: str = ""
    b: str = ""
    probability: float = 1.0
    hold: float = 12.0
    duration: float = 120.0


@dataclass(frozen=True)
class DelayAttack(FaultEvent):
    """The classic delay attack, on edge victim ``a`` ← server ``b``.

    The adversary swallows each genuine poll reply ``b → a`` and instead
    answers ``a``'s *next* poll of ``b`` with the held-back data: the
    captured reply's claim re-labelled with the fresh request id and
    nonce, delivered only ``fast_delay`` seconds after the request — far
    quicker than the link allows.  The served data is one full poll
    period old, but the victim's measured RTT (which rule MM-2 inflates
    into the adopted error) no longer covers that age — exactly the
    asymmetric-delay shift the paper's ξ bound assumes away.  On an
    unauthenticated cluster whose inherited error exceeds the staleness
    (a cold-start victim), the victim adopts a tiny claimed error around
    a clock a whole period wrong.  Defended by the MAC (the re-labelled
    header no longer verifies) and, independently, by the delay guard
    (the RTT is below the link's physical floor).
    """

    a: str = ""
    b: str = ""
    fast_delay: float = 0.0005
    duration: float = 120.0


@dataclass(frozen=True)
class SpoofedReply(FaultEvent):
    """An adversary impersonates ``server`` towards ``victim``.

    For ``duration`` seconds, each poll request ``victim → server`` is
    observed in flight and raced: a forged reply claiming ``server``'s
    identity — current true time shifted by ``offset``, a flattering
    ``claimed_error`` — arrives after only ``fast_delay`` seconds, while
    the genuine reply (arriving later) then lands on an already-consumed
    round slot.  Defended by the MAC (the forger holds no key) and the
    delay guard (the race is faster than the link floor).
    """

    server: str = ""
    victim: str = ""
    offset: float = 0.3
    claimed_error: float = 0.01
    fast_delay: float = 0.0005
    duration: float = 120.0


#: Events that target a single server's clock or honesty.
SERVER_FAULT_KINDS = (ClockStep, ClockFreeze, ClockRace, ByzantineReplies)

#: Events interpreted as a deterministic on-path (or spoofing) adversary
#: tap over the transport.
ADVERSARY_FAULT_KINDS = (MessageTamper, MessageReplay, DelayAttack, SpoofedReply)

#: Events that mutate the live topology graph (need a DynamicTopology).
TOPOLOGY_FAULT_KINDS = (EdgeChurn, TopologyRewire, MobilityTrace)


@dataclass(frozen=True)
class FaultWindow:
    """The interval during which one server-targeted fault is active.

    Attributes:
        server: The faulted server.
        start: Window start (the event's ``at``).
        end: Window end (``at`` for instantaneous faults like a step).
        taints_self: Whether the fault corrupts the server's *own* clock
            (steps/freezes/races do; Byzantine lying leaves the liar's own
            interval honest while poisoning everyone it answers).
    """

    server: str
    start: float
    end: float
    taints_self: bool


class FaultSchedule:
    """An ordered, immutable-after-build timeline of fault events."""

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self._events: List[FaultEvent] = sorted(events, key=lambda e: e.at)

    # ------------------------------------------------------------- building

    def add(self, event: FaultEvent) -> "FaultSchedule":
        """Insert an event (keeps the timeline sorted); returns self."""
        self._events.append(event)
        self._events.sort(key=lambda e: e.at)
        return self

    def extend(self, events: Sequence[FaultEvent]) -> "FaultSchedule":
        """Insert many events; returns self."""
        self._events.extend(events)
        self._events.sort(key=lambda e: e.at)
        return self

    # -------------------------------------------------------------- viewing

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        """The timeline, sorted by activation time."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def counts(self) -> Dict[str, int]:
        """Events per kind, for summaries."""
        result: Dict[str, int] = {}
        for event in self._events:
            result[event.kind] = result.get(event.kind, 0) + 1
        return dict(sorted(result.items()))

    def describe(self) -> str:
        """The whole timeline, one line per event."""
        return "\n".join(event.describe() for event in self._events)

    def signature(self) -> int:
        """A stable fingerprint of the exact timeline.

        Two schedules have equal signatures iff they contain identical
        events at identical times — the deterministic-replay tests assert
        this across runs with the same seed.
        """
        import zlib

        return zlib.crc32(self.describe().encode("utf-8"))

    def server_fault_windows(self) -> List[FaultWindow]:
        """Active windows of all server-targeted faults (for the monitor)."""
        windows: List[FaultWindow] = []
        for event in self._events:
            if isinstance(event, ClockStep):
                windows.append(
                    FaultWindow(event.server, event.at, event.at, True)
                )
            elif isinstance(event, (ClockFreeze, ClockRace)):
                windows.append(
                    FaultWindow(
                        event.server, event.at, event.at + event.duration, True
                    )
                )
            elif isinstance(event, ByzantineReplies):
                windows.append(
                    FaultWindow(
                        event.server, event.at, event.at + event.duration, False
                    )
                )
        return windows

    def crash_windows(self) -> List[FaultWindow]:
        """Downtime windows of every :class:`ServerCrash`.

        The monitor exempts a server from invariant checks while a crash
        window (plus its grace) is open — the departed flag already covers
        the downtime itself, but the window also covers the revival
        instant, so a restarted server re-enters the checks as non-faulty
        only once its exemption expires.  ``taints_self`` is False: a
        crash never corrupts the clock, it only stops the server.
        """
        return [
            FaultWindow(event.server, event.at, event.at + event.downtime, False)
            for event in self._events
            if isinstance(event, ServerCrash)
        ]

    def liar_windows(self) -> List[FaultWindow]:
        """Lying windows of every :class:`ByzantineReplies`.

        The liar's *own* clock stays honest (``taints_self`` is False);
        the window marks when its replies poison others, so experiments
        can split monitor violations into "during an active lie" versus
        "after the liars went quiet" — the latter are unforgivable.
        """
        return [
            FaultWindow(event.server, event.at, event.at + event.duration, False)
            for event in self._events
            if isinstance(event, ByzantineReplies)
        ]

    # ------------------------------------------------------------- sampling

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        names: Sequence[str],
        edges: Sequence[Tuple[str, str]],
        horizon: float,
        warmup: float = 60.0,
        link_fault_rate: float = 4.0,
        message_fault_rate: float = 2.0,
        server_fault_rate: float = 2.0,
        include_server_faults: bool = True,
        include_partitions: bool = True,
        rejoin_error: float = 2.0,
        max_clock_offset: float = 1.0,
    ) -> "FaultSchedule":
        """Sample a soak schedule from a seeded RNG.

        Args:
            seed: Root seed; the same seed always yields the identical
                timeline (``numpy`` PCG64, draws in a fixed order).
            names: Server names eligible for server-targeted faults.
            edges: Topology edges eligible for link faults.
            horizon: Schedule events in ``[warmup, horizon]``.
            warmup: Fault-free initial period so the service converges.
            link_fault_rate: Expected link-level events per hour.
            message_fault_rate: Expected message-level fault windows/hour.
            server_fault_rate: Expected server-targeted events per hour.
            include_server_faults: Sample crash/clock/Byzantine events.
            include_partitions: Allow partition events.
            rejoin_error: ε assigned when a crashed server rejoins; must
                dominate the offset its clock can accumulate while away.
            max_clock_offset: Largest sampled step/lie offset in seconds.

        Returns:
            A new schedule.  Per-server clock/Byzantine windows are kept
            non-overlapping so the injector's wrap/unwrap logic stays
            simple and the monitor's exemptions stay well-defined.
        """
        rng = np.random.Generator(np.random.PCG64(seed))
        span = max(0.0, horizon - warmup)
        hours = span / 3600.0
        events: List[FaultEvent] = []

        def when() -> float:
            return float(warmup + rng.uniform(0.0, span))

        def pick_edge() -> Tuple[str, str]:
            a, b = edges[int(rng.integers(len(edges)))]
            return str(a), str(b)

        # --- link-level -------------------------------------------------
        for _ in range(int(rng.poisson(link_fault_rate * hours))):
            a, b = pick_edge()
            choice = int(rng.integers(4)) if include_partitions else int(rng.integers(3))
            if choice == 0:
                events.append(
                    LinkFlap(
                        at=when(), a=a, b=b,
                        downtime=float(rng.uniform(5.0, 90.0)),
                    )
                )
            elif choice == 1:
                events.append(
                    DelaySpike(
                        at=when(), a=a, b=b,
                        scale=float(rng.uniform(2.0, 8.0)),
                        extra=float(rng.uniform(0.0, 0.05)),
                        duration=float(rng.uniform(30.0, 180.0)),
                    )
                )
            elif choice == 2:
                events.append(
                    LossBurst(
                        at=when(), a=a, b=b,
                        probability=float(rng.uniform(0.2, 0.8)),
                        duration=float(rng.uniform(30.0, 180.0)),
                    )
                )
            else:
                shuffled = [str(n) for n in names]
                rng.shuffle(shuffled)
                cut = max(1, int(rng.integers(1, max(2, len(shuffled)))))
                groups = (tuple(shuffled[:cut]), tuple(shuffled[cut:]))
                events.append(
                    PartitionFault(
                        at=when(),
                        groups=groups,
                        duration=float(rng.uniform(30.0, 150.0)),
                    )
                )

        # --- message-level ----------------------------------------------
        for _ in range(int(rng.poisson(message_fault_rate * hours))):
            choice = int(rng.integers(3))
            if choice == 0:
                events.append(
                    MessageCorruption(
                        at=when(),
                        probability=float(rng.uniform(0.05, 0.4)),
                        duration=float(rng.uniform(30.0, 180.0)),
                    )
                )
            elif choice == 1:
                events.append(
                    MessageDuplication(
                        at=when(),
                        probability=float(rng.uniform(0.1, 0.5)),
                        duration=float(rng.uniform(30.0, 180.0)),
                        extra_delay=float(rng.uniform(0.01, 0.1)),
                    )
                )
            else:
                events.append(
                    MessageReorder(
                        at=when(),
                        probability=float(rng.uniform(0.1, 0.5)),
                        duration=float(rng.uniform(30.0, 180.0)),
                        max_extra=float(rng.uniform(0.05, 0.3)),
                    )
                )

        # --- server-level -----------------------------------------------
        if include_server_faults and names:
            # Track per-server busy windows so clock faults never overlap.
            busy: Dict[str, List[Tuple[float, float]]] = {}

            def reserve(server: str, start: float, end: float) -> bool:
                for s, e in busy.get(server, []):
                    if start < e and s < end:
                        return False
                busy.setdefault(server, []).append((start, end))
                return True

            for _ in range(int(rng.poisson(server_fault_rate * hours))):
                server = str(names[int(rng.integers(len(names)))])
                choice = int(rng.integers(4))
                at = when()
                if choice == 0:
                    duration = float(rng.uniform(30.0, 240.0))
                    events.append(
                        ServerCrash(
                            at=at, server=server, downtime=duration,
                            rejoin_error=rejoin_error,
                        )
                    )
                elif choice == 1:
                    if reserve(server, at, at + 1.0):
                        offset = float(
                            rng.uniform(0.05, max_clock_offset)
                            * (1.0 if rng.uniform() < 0.5 else -1.0)
                        )
                        events.append(
                            ClockStep(at=at, server=server, offset=offset)
                        )
                elif choice == 2:
                    duration = float(rng.uniform(20.0, 120.0))
                    if reserve(server, at, at + duration):
                        events.append(
                            ClockFreeze(at=at, server=server, duration=duration)
                        )
                else:
                    duration = float(rng.uniform(20.0, 120.0))
                    if reserve(server, at, at + duration):
                        if rng.uniform() < 0.5:
                            events.append(
                                ClockRace(
                                    at=at, server=server,
                                    skew=float(rng.uniform(0.002, 0.05)),
                                    duration=duration,
                                )
                            )
                        else:
                            events.append(
                                ByzantineReplies(
                                    at=at, server=server, duration=duration,
                                    offset=float(
                                        rng.uniform(0.05, max_clock_offset)
                                    ),
                                    error_scale=float(rng.uniform(0.05, 0.5)),
                                )
                            )

        return cls(events)

"""The one reading of the fault DSL's message-level events.

Eight event kinds act on single messages in flight rather than on links
or servers: corruption, duplication, reordering, Byzantine replies, and
the on-path adversary's tamper, replay, delay attack and spoofing.
:meth:`MessageFaults.tap` turns each into a
:data:`~repro.network.transport.MessageTap`, and both planes run those
taps — the simulator's :class:`~repro.faults.injector.FaultInjector`
installs them on the network for the event's window, the live
:class:`~repro.runtime.proxy.ChaosProxy` runs the active ones over each
decoded datagram in schedule order.

What differs per plane is passed in, never branched on: the true-time
axis, a timer, a ``send`` that bypasses link physics (how an on-path
adversary injects traffic), the impersonated server's δ, and the RNG
stream.  The per-message draw order is part of the simulator's trace
digests, so it is fixed here, once, for both.  Every poisoned delivery
is remembered in :attr:`MessageFaults.taint_keys` (see
:func:`taint_key`) so an experiment can count exactly which poisoned
messages a server *accepted*.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..network.transport import MessageTap
from ..service.messages import RequestKind, TimeReply, TimeRequest
from .schedule import FaultEvent, touches


@dataclass
class MessageFaultStats:
    """What the message-level adversary did (one counter set, both planes)."""

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

    The adversary taps register every poisoned delivery here and the
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


class MessageFaults:
    """Message-level fault events as message taps, for either plane.

    Args:
        now: Zero-argument callable giving true time on the plane's axis
            (a spoofed reply claims it, shifted).
        call_after: ``(delay, callback)`` timer; replayed copies are
            re-sent from it.
        send: ``(source, destination, message, delay)`` delivery that
            bypasses link physics, loss and taps.
        delta: ``(server) -> δ`` claimed by a reply spoofed in that
            server's name.
        rng: Random stream for per-message decisions; None makes every
            probability a certainty (useful in unit tests).
        stats: The counter set to increment (a fresh one by default).
    """

    def __init__(
        self,
        *,
        now: Callable[[], float],
        call_after: Callable[[float, Callable[[], None]], object],
        send: Callable[[str, str, object, float], None],
        delta: Callable[[str], float],
        rng: Optional[np.random.Generator],
        stats: Optional[MessageFaultStats] = None,
    ) -> None:
        self.now = now
        self.call_after = call_after
        self.send = send
        self.delta = delta
        self.stats = MessageFaultStats() if stats is None else stats
        self._rng = rng
        #: Identities (see :func:`taint_key`) of every poisoned reply the
        #: adversary taps delivered — the gauntlet's acceptance oracle.
        self.taint_keys: set = set()
        self._delay_cache: Dict[Tuple[str, str], TimeReply] = {}

    def tap(self, event: FaultEvent) -> Optional[MessageTap]:
        """The tap realising ``event``; None when it is not message-level."""
        build = getattr(self, f"_tap_{event.kind}", None)
        return None if build is None else build(event)

    def _chance(self, probability: float) -> bool:
        return self._rng is None or float(self._rng.uniform()) < probability

    # ------------------------------------------------------ garbled traffic

    def _tap_MessageCorruption(self, event) -> MessageTap:
        def tap(source, destination, message, delay):
            if not isinstance(message, TimeReply) or not self._chance(event.probability):
                return None
            self.stats.messages_corrupted += 1
            rng = self._rng
            mode = 0 if rng is None else int(rng.integers(3))
            if mode == 0:
                garbled = replace(message, clock_value=float("nan"))
            elif mode == 1:
                garbled = replace(message, error=-1.0)
            else:
                sign = 1.0 if (rng is None or rng.uniform() < 0.5) else -1.0
                garbled = replace(message, clock_value=message.clock_value + sign * 1e6)
            return [(garbled, delay)]

        return tap

    def _tap_MessageDuplication(self, event) -> MessageTap:
        def tap(source, destination, message, delay):
            if not self._chance(event.probability):
                return None
            self.stats.messages_duplicated += 1
            return [(message, delay), (message, delay + event.extra_delay)]

        return tap

    def _tap_MessageReorder(self, event) -> MessageTap:
        def tap(source, destination, message, delay):
            if not self._chance(event.probability):
                return None
            self.stats.messages_reordered += 1
            if self._rng is None:
                return [(message, delay + event.max_extra)]
            return [(message, delay + float(self._rng.uniform(0.0, event.max_extra)))]

        return tap

    def _tap_ByzantineReplies(self, event) -> MessageTap:
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

        return tap

    # ---------------------------------------------------- on-path adversary

    def _tap_MessageTamper(self, event) -> MessageTap:
        def tap(source, destination, message, delay):
            if not (
                isinstance(message, TimeReply)
                and touches(event, source, destination)
                and self._chance(event.probability)
            ):
                return None
            self.stats.messages_tampered += 1
            # The auth tag (if any) is carried over unchanged: the MAC
            # no longer matches the rewritten payload, which is the point.
            forged = replace(message, clock_value=message.clock_value + event.offset)
            self.taint_keys.add(taint_key(forged))
            return [(forged, delay)]

        return tap

    def _tap_MessageReplay(self, event) -> MessageTap:
        def tap(source, destination, message, delay):
            if not (
                isinstance(message, (TimeReply, TimeRequest))
                and touches(event, source, destination)
                and self._chance(event.probability)
            ):
                return None

            def redeliver(msg=message, src=source, dst=destination):
                self.stats.messages_replayed += 1
                # Tainted only now: the genuine copy accepted `hold`
                # seconds ago was legitimate; this delivery is the attack.
                if isinstance(msg, TimeReply):
                    self.taint_keys.add(taint_key(msg))
                self.send(src, dst, msg, 0.0)

            self.call_after(delay + event.hold, redeliver)
            return None  # the original delivery is untouched

        return tap

    def _tap_DelayAttack(self, event) -> MessageTap:
        victim, upstream = event.a, event.b

        def tap(source, destination, message, delay):
            if getattr(message, "kind", None) is not RequestKind.POLL:
                return None
            # Reply leg upstream -> victim: capture and swallow.
            if source == upstream and destination == victim and isinstance(message, TimeReply):
                self._delay_cache[(upstream, victim)] = message
                self.stats.replies_delayed += 1
                return []  # the victim never sees the genuine reply
            # Request leg victim -> upstream: answer from the cache,
            # re-labelled fresh and implausibly fast.  The request still
            # travels on (its genuine reply will be swallowed above).
            if source == victim and destination == upstream and isinstance(message, TimeRequest):
                cached = self._delay_cache.get((upstream, victim))
                if cached is not None:
                    forged = replace(cached, request_id=message.request_id, nonce=message.nonce)
                    # A same-round retry gets the byte-identical held-back
                    # reply — that is the genuine message delivered late,
                    # not a forgery, so it earns no taint.
                    if forged != cached:
                        self.taint_keys.add(taint_key(forged))
                    self.send(upstream, victim, forged, event.fast_delay)
            return None

        return tap

    def _tap_SpoofedReply(self, event) -> MessageTap:
        def tap(source, destination, message, delay):
            if (
                source != event.victim
                or destination != event.server
                or not isinstance(message, TimeRequest)
                or message.kind is not RequestKind.POLL
            ):
                return None
            forged = TimeReply(
                request_id=message.request_id,
                server=event.server,
                destination=event.victim,
                clock_value=self.now() + event.offset,
                error=event.claimed_error,
                kind=RequestKind.POLL,
                delta=self.delta(event.server),
                nonce=message.nonce,
            )
            self.stats.replies_spoofed += 1
            self.taint_keys.add(taint_key(forged))
            self.send(event.server, event.victim, forged, event.fast_delay)
            return None  # the genuine exchange proceeds — and lands late

        return tap

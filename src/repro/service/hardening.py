"""Server hardening: surviving a hostile network and lying neighbours.

The paper's servers trust each other completely: every ``⟨C_j, E_j⟩``
reply reaches the synchronization policy, every lost poll is simply waited
out, and a neighbour that keeps feeding garbage keeps being polled
forever.  That is fine for proving theorems and fatal in production.
:class:`HardeningStage` (with the :class:`PeerHealth` book it scores
neighbours in) layers four defences on top of the base
:class:`~repro.service.server.TimeServer` without changing the algorithms
themselves:

* **Reply sanity validation** — NaN/infinite values, negative or
  absurdly large error bounds, replies whose claimed clock value is
  implausibly far from anything the local interval plus the measured
  round trip could explain, and errors that grow slower than rule MM-1
  mandates are rejected *before* they reach the policy.  The
  :class:`PeerHealth` book judges each reply once (hook:
  :meth:`~repro.service.server.TimeServer._validate_reply`), whichever
  stages listen to its verdict.
* **Retry with exponential backoff + jitter** — lost poll requests and
  recovery fetches are retransmitted within the open round instead of
  being waited out, so a 30% lossy link degrades accuracy smoothly
  instead of dropping whole rounds.
* **Adaptive round timeouts** — an EWMA of observed local round-trip
  times (plus a deviation term, TCP-RTO style) shrinks the round timeout
  to what the network actually needs, bounded above by the configured
  static timeout.
* **Neighbour health scores with quarantine** — every invalid reply,
  detected inconsistency, or exhausted retry decays a per-neighbour
  score; a neighbour falling below threshold is quarantined (excluded
  from polling and from arbiter choice) for a cooling period, then probed
  back in on probation.  A starvation guard never lets quarantine push
  the active peer count below ``min_peers``.

All knobs live in :class:`HardeningConfig`; the defaults are deliberately
conservative so that on a healthy network a hardened server behaves almost
exactly like a plain one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..telemetry.registry import metric_field
from .messages import RequestKind, TimeReply, TimeRequest
from .server import Stage, TimeServer, _PollRound, garbage_rejection


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for in-round retransmissions.

    Attributes:
        max_attempts: Total transmissions per destination per round
            (1 = no retries).
        base: Delay before the first retry, in seconds.
        factor: Multiplier applied to the delay per further attempt.
        cap: Upper bound on any single backoff delay.
        jitter: Fractional uniform jitter: the delay is scaled by a factor
            drawn from ``[1 - jitter, 1 + jitter]``.
    """

    max_attempts: int = 3
    base: float = 0.15
    factor: float = 2.0
    cap: float = 5.0
    jitter: float = 0.25

    def delay(self, attempt: int, rng: Optional[np.random.Generator]) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        raw = min(self.base * self.factor ** (attempt - 1), self.cap)
        if rng is None or self.jitter <= 0.0:
            return raw
        scale = 1.0 + self.jitter * (2.0 * float(rng.uniform()) - 1.0)
        return max(1e-6, raw * scale)


@dataclass(frozen=True)
class QuarantinePolicy:
    """When to bench a misbehaving neighbour and for how long.

    Attributes:
        threshold: Health score below which a neighbour is quarantined.
        cooldown: Seconds a quarantined neighbour sits out before being
            probed again.
        probation_score: Score assigned when a neighbour re-enters after
            cooldown (one more strike re-quarantines it quickly).
        min_peers: Starvation guard — quarantine never reduces the number
            of actively polled neighbours below this.
        invalid_penalty: Multiplicative score decay for an invalid reply.
        inconsistent_penalty: Decay for a detected inconsistency.
        timeout_penalty: Decay for a round ending with no reply (after all
            retries) — mild, because honest loss does this too.
        reward: Pull toward 1.0 per good reply: ``s ← s(1-r) + r``.
    """

    threshold: float = 0.25
    cooldown: float = 120.0
    probation_score: float = 0.5
    min_peers: int = 2
    invalid_penalty: float = 0.5
    inconsistent_penalty: float = 0.6
    timeout_penalty: float = 0.9
    reward: float = 0.2


@dataclass(frozen=True)
class HardeningConfig:
    """All hardening knobs in one declarative bundle.

    Attributes:
        max_error: Largest believable ``E_j`` in seconds; replies claiming
            more are rejected (an error bound wider than an hour means the
            neighbour effectively doesn't know the time).
        plausibility_slack: Extra margin, in seconds, allowed between the
            local and remote clock readings beyond ``E_i + E_j`` plus the
            measured round trip before a reply is called implausible.
        retry: Retransmission policy for polls and recovery fetches.
        adaptive_timeout: Derive round timeouts from observed RTTs.
        rtt_alpha: EWMA gain for the RTT mean.
        rtt_dev_alpha: EWMA gain for the RTT mean deviation.
        timeout_multiplier: Round timeout = ``mult·ewma + 4·dev`` (clamped
            to ``[min_timeout, static timeout]``).
        min_timeout: Floor for the adaptive timeout.
        quarantine: Health/quarantine policy, or None to disable.

    The two sanity bounds are the only validation knobs: every server
    with a :class:`PeerHealth` book runs the sanity checks and the rule
    MM-1 growth clamp (a Byzantine-only one with these defaults).
    """

    max_error: float = 3600.0
    plausibility_slack: float = 0.5
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    adaptive_timeout: bool = True
    rtt_alpha: float = 0.125
    rtt_dev_alpha: float = 0.25
    timeout_multiplier: float = 1.5
    min_timeout: float = 0.05
    quarantine: Optional[QuarantinePolicy] = field(
        default_factory=QuarantinePolicy
    )


@dataclass
class NeighbourHealth:
    """Mutable health record for one neighbour.

    Attributes:
        score: Exponentially smoothed reliability in ``(0, 1]``.
        quarantined_until: Real time at which quarantine ends, or None.
        good: Valid, consistent replies seen.
        invalid: Replies rejected by validation.
        inconsistent: Inconsistency detections attributed to it.
        timeouts: Rounds it failed to answer at all.
        quarantines: Times it has been quarantined.
    """

    score: float = 1.0
    quarantined_until: Optional[float] = None
    good: int = 0
    invalid: int = 0
    inconsistent: int = 0
    timeouts: int = 0
    quarantines: int = 0

    def is_quarantined(self, now: float) -> bool:
        """Whether the neighbour is benched at real time ``now``."""
        return self.quarantined_until is not None and now < self.quarantined_until

    def release_if_due(self, now: float, policy: QuarantinePolicy) -> None:
        """End an expired quarantine, putting the neighbour on probation."""
        if self.quarantined_until is not None and now >= self.quarantined_until:
            self.quarantined_until = None
            self.score = policy.probation_score

    def _decay(self, penalty: float, now: float, policy: QuarantinePolicy) -> bool:
        self.score *= penalty
        if self.score < policy.threshold and not self.is_quarantined(now):
            self.quarantined_until = now + policy.cooldown
            self.quarantines += 1
            return True
        return False

    def record_good(self, policy: QuarantinePolicy) -> None:
        """A valid, consistent reply arrived."""
        self.good += 1
        self.score = self.score * (1.0 - policy.reward) + policy.reward

    def record_invalid(self, now: float, policy: QuarantinePolicy) -> bool:
        """An invalid reply arrived; returns True if this quarantined it."""
        self.invalid += 1
        return self._decay(policy.invalid_penalty, now, policy)

    def record_inconsistent(self, now: float, policy: QuarantinePolicy) -> bool:
        """An inconsistency was detected; True if this quarantined it."""
        self.inconsistent += 1
        return self._decay(policy.inconsistent_penalty, now, policy)

    def record_timeout(self, now: float, policy: QuarantinePolicy) -> bool:
        """The neighbour never answered a round; True if quarantined."""
        self.timeouts += 1
        return self._decay(policy.timeout_penalty, now, policy)


def reply_sanity_rejection(
    reply: TimeReply,
    *,
    local_value: float,
    local_error: float,
    delta: float,
    xi: float,
    max_error: float,
    plausibility_slack: float,
) -> Optional[str]:
    """The reply sanity checks :class:`PeerHealth` runs on every reply.

    Returns None to accept or a short reason string.  Pure function of
    the reply and the local view.
    """
    reason = garbage_rejection(reply)
    if reason is not None:
        return reason
    if reply.error > max_error:
        return "implausibly large error"
    # Plausibility: the remote reading must be explainable by the two
    # error bounds plus the (inflated) round trip.  A liar that
    # underreports its error to look attractive fails exactly here.
    slack = (
        local_error
        + reply.error
        + (1.0 + delta) * xi
        + plausibility_slack
    )
    if abs(reply.clock_value - local_value) > slack:
        return "implausible clock value"
    return None


@dataclass
class HardeningStats:
    """Counters the hardening stage adds on top of ``ServerStats``,
    exported as ``repro_hardening_<field>_total``."""

    prefix = "repro_hardening_"

    retries_sent: int = metric_field("Poll retransmissions sent")
    recovery_retries: int = metric_field("Recovery request retransmissions sent")
    quarantines: int = metric_field("Neighbour quarantines imposed")
    # Quarantined peers re-admitted by the starvation guard.
    starvation_overrides: int = metric_field("Quarantined peers re-admitted")


class PeerHealth(Stage):
    """One server's peer-health book: a score per neighbour, and the one
    judge of every reply.

    Shared by every stage that rewards or penalises peers (so hardening
    and Byzantine tolerance on one server keep a single score per
    neighbour).  The book itself does what must happen once per event
    whoever is listening: judge each poll/recovery reply (the sanity
    checks, then the rule MM-1 growth clamp), filter the poll set
    through the starvation guard, penalise the peers a closed round
    never heard from, and decay a rejected peer's score.  The stages
    that *report* — how a rejection or a bench is counted and traced —
    register in :attr:`reporters`.

    Args:
        policy: The quarantine policy; None keeps the book but never
            scores or benches anybody.
        config: The sanity bounds (``max_error``,
            ``plausibility_slack``); None uses :class:`HardeningConfig`'s.
    """

    exports = ("health", "quarantined_peers")

    def __init__(
        self,
        policy: Optional[QuarantinePolicy],
        config: Optional[HardeningConfig] = None,
    ) -> None:
        self.policy = policy
        self.config = config if config is not None else HardeningConfig()
        self.health: Dict[str, NeighbourHealth] = {}
        #: Stages with ``reply_rejected(name)``, ``peer_benched(name)`` and
        #: ``peers_readmitted(n)``.
        self.reporters: list = []
        # Last observed <C_j, E_j> per neighbour, valid or not — the
        # growth clamp needs the previous *claim* to test growth — and
        # its consecutive non-physical observations.
        self._reports: Dict[str, tuple[float, float]] = {}
        self._strikes: Dict[str, int] = {}

    def of(self, name: str) -> NeighbourHealth:
        """The (created-on-demand) record for ``name``."""
        if name not in self.health:
            self.health[name] = NeighbourHealth()
        return self.health[name]

    def quarantined_peers(self) -> List[str]:
        """Neighbours currently benched."""
        now = self.server.now
        return sorted(
            name
            for name, record in self.health.items()
            if record.is_quarantined(now)
        )

    def benched(self, name: str) -> bool:
        """Whether ``name`` sits out right now."""
        return self.policy is not None and self.of(name).is_quarantined(
            self.server.now
        )

    def good(self, name: str) -> None:
        """Reward a peer for a good reply."""
        if self.policy is not None:
            self.of(name).record_good(self.policy)

    def inconsistent(self, name: str) -> None:
        """Penalise a peer an inconsistency was attributed to."""
        if self.policy is not None and self.of(name).record_inconsistent(
            self.server.now, self.policy
        ):
            self._report_bench(name)

    def _report_bench(self, name: str) -> None:
        for reporter in self.reporters:
            reporter.peer_benched(name)

    # ---------------------------------------------------------- judging

    def _validate_reply(self, reply: TimeReply) -> Optional[str]:
        """Judge a reply once: the sanity checks, then the growth clamp.

        A rejection goes down the server's one rejection path and every
        reporter counts it.
        """
        server = self.server
        value, error = server.report()
        reason = reply_sanity_rejection(
            reply,
            local_value=value,
            local_error=error,
            delta=server.delta,
            xi=server.network.xi,
            max_error=self.config.max_error,
            plausibility_slack=self.config.plausibility_slack,
        )
        if reason is None:
            reason = self._growth_rejection(reply)
        if garbage_rejection(reply) is None:
            self._reports[reply.server] = (reply.clock_value, reply.error)
        if reason is not None:
            server._peer_rejected(reply.server)
            for reporter in self.reporters:
                reporter.reply_rejected(reply.server)
        return reason

    def _growth_rejection(
        self,
        reply: TimeReply,
        *,
        tolerance: float = 0.5,
        slack: float = 1e-9,
        strikes_to_reject: int = 2,
    ) -> Optional[str]:
        """The rule MM-1 growth clamp: is the claimed error physical?

        Between two reports with no reset in between, MM-1 makes a
        server's error grow *exactly* ``δ_j`` per local second:
        ``E_j(t) = ε_j + (C_j(t) - r_j)·δ_j``.  A shrink is presumed to
        be a legitimate reset; but an error that *grew* while growing
        slower than ``δ_j · elapsed`` (minus ``tolerance``'s fraction
        and a float-rounding ``slack``) is non-physical — exactly the
        signature of a liar rescaling its reported error.  A legitimate
        reset can land the error inside the mandated-growth window by
        coincidence, so a reply is only rejected on the
        ``strikes_to_reject``-th *consecutive* non-physical observation:
        coincidences don't repeat, liars do (every round).
        """
        last = self._reports.get(reply.server)
        if last is None:
            return None
        last_value, last_error = last
        elapsed = reply.clock_value - last_value
        if elapsed <= 0.0:
            return None  # reordered/duplicate claim; other checks apply
        if reply.error < last_error:
            self._strikes[reply.server] = 0
            return None  # presumed reset
        mandated = reply.delta * elapsed
        growth = reply.error - last_error
        if growth + slack < mandated * (1.0 - tolerance):
            strikes = self._strikes.get(reply.server, 0) + 1
            self._strikes[reply.server] = strikes
            if strikes >= strikes_to_reject:
                return "non-physical error growth"
            return None
        self._strikes[reply.server] = 0
        return None

    # ------------------------------------------------------------ hooks

    def _poll_targets(self, neighbours: list[str]) -> list[str]:
        """Release due quarantines, drop benched neighbours, and — the
        starvation guard — re-admit the healthiest benched ones when
        fewer than ``min_peers`` remain."""
        policy = self.policy
        if policy is None:
            return neighbours
        now = self.server.now
        for name in neighbours:
            self.of(name).release_if_due(now, policy)
        active = [name for name in neighbours if not self.of(name).is_quarantined(now)]
        floor = min(policy.min_peers, len(neighbours))
        readmitted: List[str] = []
        if len(active) < floor:
            benched = sorted(
                (name for name in neighbours if name not in active),
                key=lambda name: (-self.of(name).score, name),
            )
            readmitted = benched[: floor - len(active)]
            active = sorted(active + readmitted)
        for reporter in self.reporters:
            reporter.peers_readmitted(len(readmitted))
        return active

    def _on_round_closed(self, round_: _PollRound) -> None:
        if self.policy is None:
            return
        # Unreachable peers (every send refused) are penalised like silent
        # ones — neither produced a reply this round.
        now = self.server.now
        for name in sorted(round_.outstanding | round_.unsent):
            if self.of(name).record_timeout(now, self.policy):
                self._report_bench(name)

    def _peer_rejected(self, peer: str) -> None:
        if self.policy is not None and self.of(peer).record_invalid(
            self.server.now, self.policy
        ):
            self._report_bench(peer)


class HardeningStage(Stage):
    """The production armour described above, as a server stage.

    Needs a :class:`PeerHealth` earlier in the stage list, which judges
    the replies (:func:`~repro.service.builder.stages_for` builds the
    pair).

    Args:
        config: The knob bundle; defaults to :class:`HardeningConfig()`.
        rng: Random stream for retry jitter.  None disables jitter
            (retries stay deterministic).
    """

    exports = ("hardening", "hardening_stats")

    def __init__(
        self,
        config: Optional[HardeningConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.hardening = config if config is not None else HardeningConfig()
        self._rng = rng
        self._rtt_ewma: Optional[float] = None
        self._rtt_dev = 0.0
        self._recovery_attempts = 0

    def attach(self, server: TimeServer) -> None:
        super().attach(server)
        self.peers = self.need(PeerHealth)
        self.peers.reporters.append(self)
        self.hardening_stats = HardeningStats()

    # ------------------------------------------------------------- health

    def peer_benched(self, name: str) -> None:
        self.hardening_stats.quarantines += 1
        self.server._trace("quarantine", server=name)

    def peers_readmitted(self, count: int) -> None:
        self.hardening_stats.starvation_overrides += count

    def reply_rejected(self, name: str) -> None:
        """Counted by the server's own ``stats.invalid_replies``."""

    # ------------------------------------------------------------ retries

    def _on_round_started(self, round_: _PollRound) -> None:
        retry = self.hardening.retry
        if retry.max_attempts > 1:
            round_.timers.append(
                self.server.call_after(
                    retry.delay(1, self._rng),
                    lambda: self._retry_round(round_, attempt=2),
                )
            )

    def _resend(
        self, destination: str, request_id: int, kind: RequestKind, nonce: int
    ) -> bool:
        """Retransmit a request; False when the transport refused it."""
        server = self.server
        request = TimeRequest(
            request_id=request_id,
            origin=server.name,
            destination=destination,
            kind=kind,
            nonce=nonce,
        )
        return server.network.send(
            server.name, destination, server._prepare_request(request)
        )

    def _pollable_unsent(self, round_: _PollRound) -> List[str]:
        """Unsent destinations a retry could still usefully reach."""
        return [
            name for name in sorted(round_.unsent) if not self.peers.benched(name)
        ]

    def _may_revive(self, round_: _PollRound) -> bool:
        if self.hardening.retry.max_attempts <= 1:
            return False
        # Reference-loss edge case: when every unsent destination is
        # benched (or the set is empty), no retry can produce a source —
        # holding the round open for the full timeout would just delay
        # the "no sources" verdict the round close reports upstream.
        return bool(self._pollable_unsent(round_))

    def _retry_round(self, round_: _PollRound, attempt: int) -> None:
        server = self.server
        if round_.closed or server.departed:
            return
        if not round_.outstanding and not round_.unsent:
            return
        retry = self.hardening.retry
        for destination in sorted(round_.outstanding | round_.unsent):
            revived = destination in round_.unsent
            if revived and self.peers.benched(destination):
                continue  # a benched peer's request never left; don't revive it
            self.hardening_stats.retries_sent += 1
            if revived:
                # The original request never left; RTT is measured from
                # this (first successful) transmission instead.
                round_.sent_local[destination] = server.clock_value()
            # A retransmission re-asks the same question: it reuses the
            # round's recorded nonce so whichever copy answers first is
            # accepted, and the other is a duplicate on an
            # already-consumed slot.
            accepted = self._resend(
                destination,
                round_.round_id,
                RequestKind.POLL,
                round_.nonces.get(destination, 0),
            )
            if revived and accepted:
                round_.unsent.discard(destination)
                round_.outstanding.add(destination)
            elif revived:
                del round_.sent_local[destination]
        if attempt < retry.max_attempts:
            round_.timers.append(
                server.call_after(
                    retry.delay(attempt, self._rng),
                    lambda: self._retry_round(round_, attempt=attempt + 1),
                )
            )
        elif not round_.outstanding:
            # The schedule is exhausted and nothing is in flight: every
            # transmission was refused at send time, so no reply can ever
            # arrive.  End the round now instead of waiting out the
            # timeout; the close path reports the empty source set.
            server._complete_round(round_)

    # ----------------------------------------------------- adaptive timeout

    def _observe_reply(self, reply: TimeReply, rtt_local: float, local_now: float) -> None:
        cfg = self.hardening
        if self._rtt_ewma is None:
            self._rtt_ewma = rtt_local
            self._rtt_dev = rtt_local / 2.0
        else:
            deviation = abs(rtt_local - self._rtt_ewma)
            self._rtt_dev += cfg.rtt_dev_alpha * (deviation - self._rtt_dev)
            self._rtt_ewma += cfg.rtt_alpha * (rtt_local - self._rtt_ewma)
        self.peers.good(reply.server)

    def _retry_budget(self) -> float:
        """Worst-case time the retry schedule needs (no jitter)."""
        retry = self.hardening.retry
        return sum(retry.delay(k, None) for k in range(1, retry.max_attempts))

    def _effective_round_timeout(self, static: float) -> float:
        # The static timeout bounds the wait for any single transmission's
        # answer; the retry budget then EXTENDS the round so the last
        # retransmission still gets a full answer window — otherwise a
        # fast network (static = 4ξ) would close rounds before the first
        # backoff delay ever fires.
        cfg = self.hardening
        if not cfg.adaptive_timeout or self._rtt_ewma is None:
            return static + self._retry_budget()
        adaptive = cfg.timeout_multiplier * self._rtt_ewma + 4.0 * self._rtt_dev
        window = min(static, max(cfg.min_timeout, adaptive))
        return window + self._retry_budget()

    # ----------------------------------------------------- health feedback

    def before_inconsistency(self, conflicting: tuple[str, ...]) -> tuple[str, ...]:
        if self.peers.policy is not None:
            for name in conflicting:
                if name != self.server.name:
                    self.peers.inconsistent(name)
            # Quarantined neighbours are unfit arbiters for the paper's
            # unconditional reset: extend the excluded set.
            conflicting = tuple(
                dict.fromkeys(
                    tuple(conflicting) + tuple(self.peers.quarantined_peers())
                )
            )
        if self.server._recovery_inflight is None:
            self._recovery_attempts = 0
        return conflicting

    # ---------------------------------------------------- recovery retries

    def before_recovery_timeout(self, request_id: int) -> bool:
        """Retransmit a silent recovery fetch; True while one is pending."""
        server = self.server
        inflight = server._recovery_inflight
        if inflight is None or inflight[0] != request_id:
            return False  # a stale timer: the base ignores it
        retry = self.hardening.retry
        _request_id, arbiter, _sent_local, recovery_nonce = inflight
        # An arbiter benched after this recovery started (its silence may
        # be what benched it) is not retried: that would just extend the
        # outage — the base abandons the attempt instead, and the next
        # inconsistency picks a fresh arbiter.
        if (
            self.peers.benched(arbiter)
            or self._recovery_attempts + 1 >= retry.max_attempts
        ):
            return False
        self._recovery_attempts += 1
        self.hardening_stats.recovery_retries += 1
        self._resend(arbiter, request_id, RequestKind.RECOVERY, recovery_nonce)
        server._recovery_timeout_event = server.call_after(
            retry.delay(self._recovery_attempts, self._rng),
            lambda: server._recovery_timeout(request_id),
        )
        return True

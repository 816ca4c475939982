"""A client built for an overloaded service.

:class:`ResilientTimeClient` replaces the base client's one-shot
broadcast with the retry discipline a production client needs when
servers can shed, degrade, or stall:

* each query is a sequence of single-server *attempts*, every attempt
  carrying its own request id (a late reply to attempt 1 can never be
  mistaken for an answer to attempt 3);
* failed attempts retry on the next server with jittered exponential
  backoff — jitter so a shed crowd does not return in lockstep;
* BUSY replies honour the server's ``retry_after`` hint (backing off at
  least that long) instead of counting as server death;
* per-server circuit breakers stop the client hammering a peer that has
  stopped answering, probing it again after a cool-down;
* optionally, a *hedge*: if an attempt has gone unanswered for a while
  but has not yet timed out, a duplicate attempt is sent to a different
  server and the first usable answer wins;
* a query that exhausts its attempt budget produces an **explicit**
  failed :class:`~repro.service.client.ClientResult` — never a silent
  drop.

DEGRADED replies are accepted as answers: their interval is wider but —
by construction (:meth:`repro.load.server.LoadStage
._answer_degraded`) — still contains true time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..service.client import ClientResult, QueryStrategy, TimeClient
from ..service.idspace import ATTEMPT_ID_SPACE, RequestIdAllocator
from ..service.messages import ReplyStatus, RequestKind, TimeReply, TimeRequest
from ..simulation.events import Event


# ----------------------------------------------------------------- backoff


@dataclass(frozen=True)
class BackoffPolicy:
    """Jittered exponential backoff between attempts.

    Attributes:
        base: Delay before the first retry, in seconds.
        factor: Multiplier per further retry.
        max_delay: Cap on the un-jittered delay.
        jitter: Fractional jitter: the delay is scaled by a uniform
            draw from ``[1 − jitter, 1 + jitter]``.
    """

    base: float = 0.05
    factor: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValueError(f"base must be positive, got {self.base}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.max_delay < self.base:
            raise ValueError("max_delay must be >= base")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay(self, attempt: int, rng: Optional[np.random.Generator]) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        raw = min(self.max_delay, self.base * self.factor ** max(0, attempt - 1))
        if rng is not None and self.jitter > 0.0:
            raw *= 1.0 + self.jitter * (2.0 * float(rng.uniform()) - 1.0)
        return max(1e-6, raw)


# ---------------------------------------------------------- circuit breaker


class CircuitState(enum.Enum):
    """The classic three circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Per-server breaker knobs.

    Attributes:
        failure_threshold: Consecutive attempt timeouts that trip the
            breaker open.
        reset_timeout: Seconds an open breaker waits before letting one
            probe attempt through (half-open).
    """

    failure_threshold: int = 3
    reset_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.reset_timeout <= 0:
            raise ValueError(
                f"reset_timeout must be positive, got {self.reset_timeout}"
            )


class CircuitBreaker:
    """One server's breaker: closed → open on failures, probe to close."""

    def __init__(self, config: CircuitBreakerConfig) -> None:
        self.config = config
        self.state = CircuitState.CLOSED
        self.failures = 0
        self.opened_at = -math.inf
        self.trips = 0

    def allow(self, now: float) -> bool:
        """Whether an attempt to this server may be sent right now."""
        if self.state is CircuitState.CLOSED:
            return True
        if self.state is CircuitState.OPEN:
            if now - self.opened_at >= self.config.reset_timeout:
                self.state = CircuitState.HALF_OPEN
                return True
            return False
        return True  # half-open: the probe (and its hedges) may fly

    def record_success(self) -> None:
        self.state = CircuitState.CLOSED
        self.failures = 0

    def record_failure(self, now: float) -> None:
        if self.state is CircuitState.HALF_OPEN:
            # The probe failed: straight back to open, timer restarted.
            self.state = CircuitState.OPEN
            self.opened_at = now
            self.trips += 1
            return
        self.failures += 1
        if (
            self.state is CircuitState.CLOSED
            and self.failures >= self.config.failure_threshold
        ):
            self.state = CircuitState.OPEN
            self.opened_at = now
            self.trips += 1


# ------------------------------------------------------------ configuration


@dataclass(frozen=True)
class ResilienceConfig:
    """The resilient client's knob bundle.

    Attributes:
        max_attempts: Total attempts (hedges included) per query.
        attempt_timeout: Seconds before one attempt is given up on.
        backoff: Retry backoff policy.
        breaker: Per-server circuit-breaker config; None disables
            breakers.
        hedge_after: Send a duplicate attempt to another server if the
            current one is still unanswered after this many seconds
            (must be < ``attempt_timeout``); None disables hedging.
        honor_retry_after: Back off at least a BUSY reply's
            ``retry_after`` hint before the next attempt.
    """

    max_attempts: int = 4
    attempt_timeout: float = 0.25
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    breaker: Optional[CircuitBreakerConfig] = field(
        default_factory=CircuitBreakerConfig
    )
    hedge_after: Optional[float] = None
    honor_retry_after: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.attempt_timeout <= 0:
            raise ValueError(
                f"attempt_timeout must be positive, got {self.attempt_timeout}"
            )
        if self.hedge_after is not None and not (
            0.0 < self.hedge_after < self.attempt_timeout
        ):
            raise ValueError(
                "hedge_after must be in (0, attempt_timeout), got "
                f"{self.hedge_after}"
            )


@dataclass
class ResilienceStats:
    """What the retry machinery did across all queries."""

    attempts: int = 0
    retries: int = 0
    hedges: int = 0
    busy_received: int = 0
    attempt_timeouts: int = 0
    degraded_accepted: int = 0
    breaker_skips: int = 0  # candidate servers skipped on an open breaker


# ------------------------------------------------------------- query state


@dataclass
class _Attempt:
    """One in-flight single-server attempt."""

    request_id: int
    query: "_ResilientQuery"
    server: str
    sent_local: float
    timeout_event: Optional[Event] = None
    hedge_event: Optional[Event] = None
    done: bool = False

    def cancel_timers(self) -> None:
        if self.timeout_event is not None:
            self.timeout_event.cancel()
            self.timeout_event = None
        if self.hedge_event is not None:
            self.hedge_event.cancel()
            self.hedge_event = None


@dataclass
class _ResilientQuery:
    """One logical query: a budgeted sequence of attempts."""

    query_id: int
    servers: tuple
    callback: Callable[[ClientResult], None]
    started: float
    attempts_launched: int = 0
    rotation: int = 0
    inflight: Dict[int, _Attempt] = field(default_factory=dict)
    retry_event: Optional[Event] = None
    done: bool = False


# ----------------------------------------------------------------- client


class ResilientTimeClient(TimeClient):
    """A :class:`TimeClient` that retries, breaks circuits, and hedges.

    ``ask`` keeps the base signature but changes semantics: servers are
    a *candidate rotation*, each attempt asks exactly one of them, and
    the first usable reply (OK or DEGRADED) completes the query.  The
    ``strategy``/``faults`` arguments are accepted for interface
    compatibility and ignored — a single reply needs no combining.

    Args:
        resilience: The retry/breaker/hedge configuration.
        rng: RNG stream for backoff jitter (None → deterministic,
            un-jittered backoff).

    Remaining arguments are :class:`TimeClient`'s.
    """

    def __init__(
        self,
        *args,
        resilience: Optional[ResilienceConfig] = None,
        rng: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.load_stats = ResilienceStats()
        self._rng = rng
        self._rqueries: Dict[int, _ResilientQuery] = {}
        self._attempts: Dict[int, _Attempt] = {}
        # Attempt ids live in their own space so a reply to an attempt can
        # never be routed to a base-client query and vice versa (shared
        # bookkeeping: repro.service.idspace).
        self._attempt_ids = RequestIdAllocator(ATTEMPT_ID_SPACE)

    # --------------------------------------------------------------- queries

    def ask(
        self,
        servers: Sequence[str],
        strategy: QueryStrategy = QueryStrategy.FIRST_REPLY,
        callback: Optional[Callable[[ClientResult], None]] = None,
        faults: int = 0,
    ) -> int:
        if not servers:
            raise ValueError("a query needs at least one server")
        rquery = _ResilientQuery(
            query_id=self._query_ids.allocate(),
            servers=tuple(servers),
            callback=callback if callback is not None else (lambda result: None),
            started=self.now,
        )
        self._rqueries[rquery.query_id] = rquery
        self._launch_attempt(rquery)
        return rquery.query_id

    def _breaker(self, server: str) -> Optional[CircuitBreaker]:
        if self.resilience.breaker is None:
            return None
        breaker = self.breakers.get(server)
        if breaker is None:
            breaker = CircuitBreaker(self.resilience.breaker)
            self.breakers[server] = breaker
        return breaker

    def _choose_server(self, rquery: _ResilientQuery) -> str:
        """Next candidate in rotation, skipping open breakers and servers
        already in flight for this query; falls back to the plain rotation
        choice when every candidate is vetoed (some answer may beat none).
        """
        candidates = rquery.servers
        busy_now = {attempt.server for attempt in rquery.inflight.values()}
        for offset in range(len(candidates)):
            server = candidates[(rquery.rotation + offset) % len(candidates)]
            if server in busy_now and len(candidates) > len(busy_now):
                continue
            breaker = self._breaker(server)
            if breaker is not None and not breaker.allow(self.now):
                self.load_stats.breaker_skips += 1
                continue
            rquery.rotation = (rquery.rotation + offset + 1) % len(candidates)
            return server
        server = candidates[rquery.rotation % len(candidates)]
        rquery.rotation = (rquery.rotation + 1) % len(candidates)
        return server

    def _launch_attempt(
        self, rquery: _ResilientQuery, *, hedge: bool = False
    ) -> None:
        if rquery.done:
            return
        if rquery.attempts_launched >= self.resilience.max_attempts:
            if not rquery.inflight or all(
                attempt.done for attempt in rquery.inflight.values()
            ):
                self._fail(rquery)
            return
        rquery.attempts_launched += 1
        self.load_stats.attempts += 1
        if hedge:
            self.load_stats.hedges += 1
        server = self._choose_server(rquery)
        attempt = _Attempt(
            request_id=self._attempt_ids.allocate(),
            query=rquery,
            server=server,
            sent_local=self.clock.read(self.now),
        )
        rquery.inflight[attempt.request_id] = attempt
        self._attempts[attempt.request_id] = attempt
        self.network.send(
            self.name,
            server,
            TimeRequest(
                request_id=attempt.request_id,
                origin=self.name,
                destination=server,
                kind=RequestKind.CLIENT,
            ),
        )
        attempt.timeout_event = self.call_after(
            self.resilience.attempt_timeout,
            lambda: self._attempt_timed_out(attempt),
        )
        if (
            self.resilience.hedge_after is not None
            and not hedge
            and len(rquery.servers) > 1
        ):
            attempt.hedge_event = self.call_after(
                self.resilience.hedge_after,
                lambda: self._maybe_hedge(attempt),
            )

    # --------------------------------------------------------------- replies

    def on_message(self, message, sender) -> None:
        if (
            isinstance(message, TimeReply)
            and message.request_id in self._attempts
        ):
            self._on_attempt_reply(message)
            return
        super().on_message(message, sender)

    def _on_attempt_reply(self, reply: TimeReply) -> None:
        attempt = self._attempts[reply.request_id]
        rquery = attempt.query
        if rquery.done or attempt.done or reply.server != attempt.server:
            return
        attempt.done = True
        attempt.cancel_timers()
        if reply.status is ReplyStatus.BUSY:
            self.load_stats.busy_received += 1
            # BUSY proves the server alive; only timeouts feed the breaker.
            delay = self.resilience.backoff.delay(
                rquery.attempts_launched, self._rng
            )
            if self.resilience.honor_retry_after:
                delay = max(delay, reply.retry_after)
            self._schedule_retry(rquery, delay)
            return
        breaker = self._breaker(attempt.server)
        if breaker is not None:
            breaker.record_success()
        if reply.status is ReplyStatus.DEGRADED:
            self.load_stats.degraded_accepted += 1
        local_now = self.clock.read(self.now)
        rtt_local = max(0.0, local_now - attempt.sent_local)
        interval = self._aged_interval(reply, rtt_local, local_now, local_now)
        prefix = "degraded:" if reply.status is ReplyStatus.DEGRADED else ""
        result = ClientResult(
            estimate=interval.center,
            error=interval.error,
            true_time=self.now,
            replies_used=1,
            source=f"{prefix}{reply.server}",
            latency=self.now - rquery.started,
        )
        self._conclude(rquery)
        self.results.append(result)
        rquery.callback(result)

    def _attempt_timed_out(self, attempt: _Attempt) -> None:
        rquery = attempt.query
        if rquery.done or attempt.done:
            return
        attempt.done = True
        attempt.cancel_timers()
        self.load_stats.attempt_timeouts += 1
        breaker = self._breaker(attempt.server)
        if breaker is not None:
            breaker.record_failure(self.now)
        if any(not other.done for other in rquery.inflight.values()):
            return  # a hedge is still in the air; let it race
        delay = self.resilience.backoff.delay(rquery.attempts_launched, self._rng)
        self._schedule_retry(rquery, delay)

    def _maybe_hedge(self, attempt: _Attempt) -> None:
        rquery = attempt.query
        if rquery.done or attempt.done:
            return
        self._launch_attempt(rquery, hedge=True)

    # ------------------------------------------------------------ completion

    def _schedule_retry(self, rquery: _ResilientQuery, delay: float) -> None:
        if rquery.done or rquery.retry_event is not None:
            return
        if rquery.attempts_launched >= self.resilience.max_attempts:
            self._fail(rquery)
            return
        self.load_stats.retries += 1

        def fire() -> None:
            rquery.retry_event = None
            self._launch_attempt(rquery)

        rquery.retry_event = self.call_after(delay, fire)

    def _conclude(self, rquery: _ResilientQuery) -> None:
        """Tear down a finished query: timers cancelled, maps cleared."""
        rquery.done = True
        if rquery.retry_event is not None:
            rquery.retry_event.cancel()
            rquery.retry_event = None
        for request_id, attempt in rquery.inflight.items():
            attempt.cancel_timers()
            attempt.done = True
            self._attempts.pop(request_id, None)
        rquery.inflight.clear()
        self._rqueries.pop(rquery.query_id, None)

    def _fail(self, rquery: _ResilientQuery) -> None:
        if rquery.done:
            return
        result = ClientResult(
            estimate=math.nan,
            error=math.inf,
            true_time=self.now,
            replies_used=0,
            source="failed",
            failed=True,
            latency=self.now - rquery.started,
        )
        self._conclude(rquery)
        self.failures.append(result)
        rquery.callback(result)

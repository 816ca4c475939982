"""A time server with a finite request path.

:class:`LoadStage` wraps :class:`~repro.service.server.TimeServer`'s
message handling in the capacity model of :mod:`repro.load.capacity`:
every delivered message enters a bounded run queue and costs simulated
CPU before it is processed.  On top of that physics it layers the
defences from :mod:`repro.load.admission`:

* client-plane arrivals pass a token bucket and a shedding policy before
  they may queue; refused requests get a BUSY reply with a retry-after
  hint (or are silently dropped when ``busy_replies`` is off — the
  "plain" configuration);
* sync-plane arrivals (peer polls, recovery fetches, and this server's
  own poll replies) are never shed; on a full queue they may evict the
  youngest queued client request instead;
* when the queue-delay EWMA says the server is overloaded, client
  requests are answered from a stale cache — the paper's rule MM-1
  "answer with a large E" taken literally: the cached ``⟨C₀, E₀⟩`` is
  aged by the local clock ticks since it was taken and served with its
  error inflated by ``δ·age/(1 − δ)`` (the ``ρ·age`` drift allowance),
  which provably still contains true time — no reset intervened,
  because resets refresh the cache.

The *plain* arm of the flash-crowd experiment is this same stage with
every defence disabled (:meth:`LoadPolicy.plain`): a single FIFO queue
with drop-tail overflow and no BUSY replies — the realistic baseline
whose poll rounds a client crowd can starve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..service.messages import ReplyStatus, RequestKind, TimeReply, TimeRequest
from ..service.server import Stage, TimeServer
from ..telemetry.registry import CounterBackedStats, CounterField
from .admission import (
    OverloadConfig,
    OverloadDetector,
    SheddingPolicy,
    TokenBucket,
    TokenBucketConfig,
    make_shedding_policy,
)
from .capacity import CapacityConfig, QueuedItem, RequestQueue, ServiceClass


@dataclass(frozen=True)
class LoadPolicy:
    """Which overload defences a :class:`LoadStage` runs.

    Attributes:
        admission: Token-bucket config gating client-plane arrivals; None
            disables the bucket.
        shedding: Registry name of the queue shedding policy
            (see :data:`repro.load.admission.SHEDDING_POLICIES`).
        shedding_kwargs: Keyword arguments for the shedding policy.
        overload: Queue-delay EWMA detector config; None disables
            detection (and therefore degraded mode).
        degraded: Serve client requests from the stale cache while the
            detector says overloaded.
        busy_replies: Send BUSY/retry-after replies for shed requests;
            off, shed requests are silently dropped (clients time out).
    """

    admission: Optional[TokenBucketConfig] = field(
        default_factory=TokenBucketConfig
    )
    shedding: str = "deadline"
    shedding_kwargs: dict = field(default_factory=dict)
    overload: Optional[OverloadConfig] = field(default_factory=OverloadConfig)
    degraded: bool = True
    busy_replies: bool = True

    @staticmethod
    def plain() -> "LoadPolicy":
        """The undefended baseline: FIFO drop-tail, nothing else."""
        return LoadPolicy(
            admission=None,
            shedding="drop-tail",
            overload=None,
            degraded=False,
            busy_replies=False,
        )


class LoadStats(CounterBackedStats):
    """What the request path did, beyond the queue's own accounting.

    Registry-backed (see :class:`~repro.telemetry.registry.
    CounterBackedStats`): attribute reads and ``+=`` behave exactly as
    the old dataclass integers did, while the values export as
    ``repro_load_*_total`` counter families when telemetry is on.
    """

    prefix = "repro_load_"

    fresh_replies = CounterField("Client requests answered with a live report")
    degraded_replies = CounterField("Client requests answered from the cache")
    # ... whose interval contained true time (oracle).
    degraded_correct = CounterField("Degraded replies that were correct")
    busy_replies = CounterField("BUSY replies sent (admission, shedding, eviction)")
    shed_silent = CounterField("Shed without the courtesy of a BUSY reply")
    sync_evictions = CounterField("Client entries evicted for sync-plane arrivals")
    sync_drops = CounterField("Sync-plane arrivals lost to a full queue")


class LoadStage(Stage):
    """Makes a server's requests cost CPU, and sheds them under overload.

    Every delivered message is taken over (queued) here and handed to
    the server's own ``on_message`` once its service time has been paid.

    Args:
        capacity: The service-time/queue physics (required).
        load_policy: The defence configuration; defaults to everything on.
        rng: RNG stream for the random shedding policy's draws; only
            needed when ``load_policy.shedding == "random"``.
    """

    exports = ("queue", "bucket", "detector", "load_stats")

    def __init__(
        self,
        capacity: CapacityConfig,
        load_policy: Optional[LoadPolicy] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.capacity = capacity
        self.load_policy = load_policy if load_policy is not None else LoadPolicy()
        self.queue = RequestQueue(capacity.queue_limit, capacity.prioritized)
        self.bucket: Optional[TokenBucket] = (
            TokenBucket(self.load_policy.admission)
            if self.load_policy.admission is not None
            else None
        )
        self.shedder: SheddingPolicy = make_shedding_policy(
            self.load_policy.shedding, **self.load_policy.shedding_kwargs
        )
        self.detector: Optional[OverloadDetector] = (
            OverloadDetector(self.load_policy.overload)
            if self.load_policy.overload is not None
            else None
        )
        self._rng = rng
        self._cpu_busy = False
        # The degraded-mode cache: the last fresh ⟨C, E⟩ this server
        # computed, keyed by the local clock reading at that instant.
        self._cache: Optional[tuple[float, float]] = None

    def attach(self, server: TimeServer) -> None:
        super().attach(server)
        self.load_stats = LoadStats(server.telemetry.stats_registry())

    # ------------------------------------------------------------- lifecycle

    def after_start(self) -> None:
        self._refresh_cache()

    def before_leave(self) -> None:
        # Drain the queue: a departed server answers nothing.
        while self.queue.pop() is not None:
            pass

    # ----------------------------------------------------------- degradation

    def _refresh_cache(self) -> None:
        self._cache = self.server.report()

    def after_reset(self, decision, kind: str) -> None:
        # A reset may move the clock backward; the cache's age arithmetic
        # assumes a monotone clock since the cache was taken, so retake it.
        self._refresh_cache()

    def after_answer(self, request: TimeRequest) -> None:
        # Answering computed a fresh report anyway — keep the cache warm.
        self._refresh_cache()
        if request.kind is RequestKind.CLIENT:
            self.load_stats.fresh_replies += 1

    def _answer_degraded(self, request: TimeRequest) -> None:
        """Serve a client request from the stale cache, correctly.

        The cached pair ``⟨C₀, E₀⟩`` contained true time when it was
        taken: ``|C₀ − t₀| ≤ E₀``.  Since then the local clock advanced
        ``age = C(now) − C₀`` ticks (monotone — no reset intervened,
        because resets refresh the cache), which brackets real elapsed
        time ``e`` by ``age/(1 + δ) ≤ e ≤ age/(1 − δ)``.  Serving the
        *aged* centre ``C₀ + age`` therefore misses ``t₀ + e`` by at
        most ``E₀ + |age − e| ≤ E₀ + δ·age/(1 − δ)`` — rule MM-1's
        ``ρ·age`` drift allowance.  Precision is shed (``E₀`` is the
        error as of the last fresh answer, not now), correctness is
        not.  Note ``δ/(1 − δ)``, not ``δ`` — the latter under-covers.
        """
        assert self._cache is not None
        server = self.server
        value, error = self._cache
        age = max(0.0, server.clock_value() - value)
        served = value + age
        if server.delta < 1.0:
            inflated = error + age * server.delta / (1.0 - server.delta)
        else:  # a claimed drift ≥ 100% makes local age meaningless
            inflated = math.inf
        server.stats.requests_answered += 1
        self.load_stats.degraded_replies += 1
        if served - inflated <= server.now <= served + inflated:
            self.load_stats.degraded_correct += 1
        reply = TimeReply(
            request_id=request.request_id,
            server=server.name,
            destination=request.origin,
            clock_value=served,
            error=inflated,
            kind=request.kind,
            delta=server.delta,
            status=ReplyStatus.DEGRADED,
        )
        server.network.send(server.name, request.origin, server._prepare_reply(reply))

    def _send_busy(self, request: TimeRequest) -> None:
        """Refuse a client request, cheaply.

        BUSY replies cost ``busy_time`` of front-door latency but do not
        occupy the serving CPU — shedding that was as expensive as
        serving would be no defence.  With ``busy_replies`` off the
        request is dropped without a word (the client times out).
        """
        if not self.load_policy.busy_replies:
            self.load_stats.shed_silent += 1
            return
        server = self.server
        self.load_stats.busy_replies += 1
        hint = (
            self.bucket.retry_after(server.now) if self.bucket is not None else 0.0
        )
        reply = server._prepare_reply(
            TimeReply(
                request_id=request.request_id,
                server=server.name,
                destination=request.origin,
                clock_value=0.0,
                error=math.inf,
                kind=request.kind,
                delta=server.delta,
                status=ReplyStatus.BUSY,
                retry_after=hint,
            )
        )
        origin = request.origin
        server.call_after(
            self.capacity.busy_time,
            lambda: server.network.send(server.name, origin, reply),
        )

    # --------------------------------------------------------- request path

    @staticmethod
    def _classify(message: Any) -> Optional[ServiceClass]:
        """Which plane a delivered message belongs to (None: not ours)."""
        if isinstance(message, (TimeRequest, TimeReply)):
            if message.kind is RequestKind.CLIENT:
                return ServiceClass.CLIENT
            if message.kind is RequestKind.RECOVERY:
                return ServiceClass.RECOVERY
            return ServiceClass.POLL
        return None

    def before_message(self, message, sender) -> bool:
        """Queue the delivery; always takes it over from the server."""
        if self.server.departed:
            return True
        service_class = self._classify(message)
        if service_class is None:
            return True
        if service_class is ServiceClass.CLIENT:
            if not self._admit_client(message):
                return True
        elif self.queue.full:
            evicted = (
                self.queue.evict_youngest_client()
                if self.capacity.sync_evicts_client
                else None
            )
            if evicted is None:
                # The sync-plane message itself is lost — the starvation
                # the priority queue + eviction exist to prevent.
                self.queue.note_overflow(service_class)
                self.load_stats.sync_drops += 1
                return True
            self.load_stats.sync_evictions += 1
            if isinstance(evicted.message, TimeRequest):
                self._send_busy(evicted.message)
        self.queue.push(
            QueuedItem(
                service_class=service_class,
                message=message,
                sender=sender,
                arrived=self.server.now,
            )
        )
        self._pump()
        return True

    def _admit_client(self, message: Any) -> bool:
        """Run a client-plane arrival through the bucket and the shedder."""
        now = self.server.now
        is_request = isinstance(message, TimeRequest)
        if (
            is_request
            and self.bucket is not None
            and not self.bucket.try_admit(now)
        ):
            self._send_busy(message)
            return False
        if not self.shedder.admit(self.queue, now, self._rng):
            self.queue.note_overflow(ServiceClass.CLIENT)
            if is_request:
                self._send_busy(message)
            else:
                self.load_stats.shed_silent += 1
            return False
        return True

    def _pump(self) -> None:
        """Start serving the next queued message, if the CPU is free."""
        if self._cpu_busy:
            return
        item = self.queue.pop()
        if item is None:
            return
        self._cpu_busy = True
        if self.detector is not None:
            self.detector.observe(item.waited(self.server.now))
        degraded = (
            self.detector is not None
            and self.detector.overloaded
            and self.load_policy.degraded
            and item.service_class is ServiceClass.CLIENT
            and isinstance(item.message, TimeRequest)
        )
        cost = (
            self.capacity.degraded_time if degraded else self.capacity.service_time
        )
        self.server.call_after(cost, lambda: self._finish_service(item, degraded))

    def _finish_service(self, item: QueuedItem, degraded: bool) -> None:
        self._cpu_busy = False
        server = self.server
        if not server.departed:
            if degraded:
                self._answer_degraded(item.message)
            else:
                # The paper's full message handling, paid for in CPU time:
                # the class's method, past this stage's own takeover.
                type(server).on_message(server, item.message, item.sender)
        self._pump()

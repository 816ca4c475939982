"""Overload robustness: capacity, admission control, graceful degradation.

The paper's servers answer instantly and for free; this package gives
them a finite request path and the defences to survive a client flash
crowd without losing the synchronization that makes them a time service:

* :mod:`repro.load.capacity` — service-time model, bounded priority run
  queue, per-class accounting;
* :mod:`repro.load.admission` — token-bucket admission, pluggable
  shedding policies, queue-delay EWMA overload detection;
* :mod:`repro.load.server` — :class:`LoadStage`, whose degraded
  mode sheds *precision* instead of availability (a stale ``⟨C, E⟩``
  with ``E`` inflated by ``age/(1 − δ)`` still contains true time);
* :mod:`repro.load.client` — :class:`ResilientTimeClient`: retries with
  jittered backoff, per-attempt request ids, circuit breakers, hedging,
  retry-after hints, and explicit failure outcomes;
* :mod:`repro.load.workload` — open-loop Poisson flash-crowd generation.
"""

from .admission import (
    DeadlineAwareShed,
    DropTail,
    OverloadConfig,
    OverloadDetector,
    RandomEarlyShed,
    SHEDDING_POLICIES,
    SheddingPolicy,
    TokenBucket,
    TokenBucketConfig,
    make_shedding_policy,
)
from .capacity import (
    CapacityConfig,
    QueuedItem,
    QueueStats,
    RequestQueue,
    ServiceClass,
)
from .client import (
    BackoffPolicy,
    CircuitBreaker,
    CircuitBreakerConfig,
    CircuitState,
    ResilienceConfig,
    ResilienceStats,
    ResilientTimeClient,
)
from .server import LoadPolicy, LoadStage, LoadStats
from .workload import FlashCrowdProfile, WorkloadGenerator

__all__ = [
    "BackoffPolicy",
    "CapacityConfig",
    "CircuitBreaker",
    "CircuitBreakerConfig",
    "CircuitState",
    "DeadlineAwareShed",
    "DropTail",
    "FlashCrowdProfile",
    "LoadPolicy",
    "LoadStage",
    "LoadStats",
    "OverloadConfig",
    "OverloadDetector",
    "QueueStats",
    "QueuedItem",
    "RandomEarlyShed",
    "RequestQueue",
    "ResilienceConfig",
    "ResilienceStats",
    "ResilientTimeClient",
    "SHEDDING_POLICIES",
    "ServiceClass",
    "SheddingPolicy",
    "TokenBucket",
    "TokenBucketConfig",
    "WorkloadGenerator",
    "make_shedding_policy",
]

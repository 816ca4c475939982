"""Admission control: token buckets, shedding policies, overload detection.

Three independent mechanisms a :class:`~repro.load.server.LoadStage`
composes, all deterministic under a seeded RNG stream:

* :class:`TokenBucket` — the admission limiter at the door.  Client-plane
  requests spend a token; an empty bucket means the request is shed with
  a BUSY reply carrying a ``retry_after`` hint (the time until the next
  token accrues), so clients back off instead of hammering.
* Shedding policies — what to do when the *queue* (not the bucket) is the
  contended resource: :class:`DropTail` refuses newcomers,
  :class:`RandomEarlyShed` sheds probabilistically before the queue is
  full (RED-style, de-synchronising retry storms), and
  :class:`DeadlineAwareShed` evicts queued requests that have already
  waited past the client's useful deadline — their replies would be
  thrown away anyway, so serving them is pure waste.
* :class:`OverloadDetector` — a queue-delay EWMA with hysteresis.  The
  detector decides when the server flips into degraded (stale-cache)
  serving and when it recovers; hysteresis stops it flapping on the
  boundary.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .capacity import QueuedItem, RequestQueue, ServiceClass


# ------------------------------------------------------------ token bucket


@dataclass(frozen=True)
class TokenBucketConfig:
    """Admission-rate knobs.

    Attributes:
        rate: Tokens (admitted client requests) per second.
        burst: Bucket capacity — the largest instantaneous burst admitted.
    """

    rate: float = 100.0
    burst: float = 20.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")


class TokenBucket:
    """The classic leaky-bucket admission limiter.

    Tokens accrue continuously at ``rate`` up to ``burst``; admitting a
    request spends one.  :meth:`retry_after` converts the deficit into the
    BUSY reply's back-off hint.
    """

    def __init__(self, config: TokenBucketConfig, now: float = 0.0) -> None:
        self.config = config
        self._tokens = float(config.burst)
        self._updated = now
        self.admitted = 0
        self.refused = 0

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._updated)
        self._updated = now
        self._tokens = min(
            float(self.config.burst), self._tokens + elapsed * self.config.rate
        )

    def tokens(self, now: float) -> float:
        """Current token level (after refill)."""
        self._refill(now)
        return self._tokens

    def try_admit(self, now: float) -> bool:
        """Spend one token if available; returns whether admitted."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.admitted += 1
            return True
        self.refused += 1
        return False

    def retry_after(self, now: float) -> float:
        """Seconds until one full token will have accrued."""
        self._refill(now)
        deficit = max(0.0, 1.0 - self._tokens)
        return deficit / self.config.rate


# --------------------------------------------------------- shedding policies


class SheddingPolicy(abc.ABC):
    """Decides the fate of a client-plane arrival contending for the queue.

    ``admit`` may mutate the queue (evict a stale entry) to make room.
    Returning False sheds the arrival; the caller sends the BUSY reply and
    does the counting.  Sync-plane messages never pass through a shedding
    policy — their isolation is handled by the server itself.
    """

    #: Registry name used by configs and the CLI.
    name: str = "abstract"

    @abc.abstractmethod
    def admit(
        self,
        queue: RequestQueue,
        now: float,
        rng: Optional[np.random.Generator],
    ) -> bool:
        """Whether a new CLIENT arrival may enter ``queue`` at ``now``."""


class DropTail(SheddingPolicy):
    """Refuse newcomers only when the queue is actually full."""

    name = "drop-tail"

    def admit(
        self,
        queue: RequestQueue,
        now: float,
        rng: Optional[np.random.Generator],
    ) -> bool:
        return not queue.full


class RandomEarlyShed(SheddingPolicy):
    """RED-style probabilistic early shedding.

    Below ``threshold``·limit occupancy every arrival is admitted; above
    it the shed probability rises linearly to 1 at a full queue.  Early
    random shedding spreads the pain across clients instead of
    synchronising a whole crowd's retries on the instant the queue frees.
    """

    name = "random"

    def __init__(self, threshold: float = 0.5) -> None:
        if not 0.0 <= threshold < 1.0:
            raise ValueError(f"threshold must be in [0, 1), got {threshold}")
        self.threshold = threshold

    def admit(
        self,
        queue: RequestQueue,
        now: float,
        rng: Optional[np.random.Generator],
    ) -> bool:
        if queue.full:
            return False
        knee = self.threshold * queue.limit
        depth = len(queue)
        if depth <= knee:
            return True
        probability = (depth - knee) / max(1e-9, queue.limit - knee)
        draw = 1.0 if rng is None else float(rng.uniform())
        return draw >= probability


class DeadlineAwareShed(SheddingPolicy):
    """Evict queued requests whose reply would be discarded anyway.

    A client that asked with timeout ``T`` has no use for a reply served
    after ``T``; a queued request older than ``deadline`` (set at or below
    the client timeout, minus the return flight) is dead weight.  On a
    full queue the policy evicts the *oldest* such stale entry to admit
    the newcomer; with no stale entry it behaves like drop-tail.
    """

    name = "deadline"

    def __init__(self, deadline: float = 0.5) -> None:
        if deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.deadline = deadline

    def admit(
        self,
        queue: RequestQueue,
        now: float,
        rng: Optional[np.random.Generator],
    ) -> bool:
        if not queue.full:
            return True
        stale = queue.stale_client_items(now, self.deadline)
        if not stale:
            return False
        oldest = max(stale, key=lambda item: item.waited(now))
        return queue.remove(oldest)


SHEDDING_POLICIES = {
    DropTail.name: DropTail,
    RandomEarlyShed.name: RandomEarlyShed,
    DeadlineAwareShed.name: DeadlineAwareShed,
}


def make_shedding_policy(name: str, **kwargs) -> SheddingPolicy:
    """Build a shedding policy by registry name."""
    try:
        cls = SHEDDING_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown shedding policy {name!r}; try one of "
            f"{sorted(SHEDDING_POLICIES)}"
        ) from None
    return cls(**kwargs)


# --------------------------------------------------------- overload detector


@dataclass(frozen=True)
class OverloadConfig:
    """Queue-delay EWMA detector knobs.

    Attributes:
        alpha: EWMA gain per observation.
        enter_threshold: Smoothed queue delay (s) above which the server
            is declared overloaded.
        exit_threshold: Smoothed delay below which it recovers; must be
            below ``enter_threshold`` (the hysteresis band).
    """

    alpha: float = 0.2
    enter_threshold: float = 0.05
    exit_threshold: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.enter_threshold <= 0:
            raise ValueError(
                f"enter_threshold must be positive, got {self.enter_threshold}"
            )
        if not 0.0 <= self.exit_threshold < self.enter_threshold:
            raise ValueError(
                "exit_threshold must be in [0, enter_threshold), got "
                f"{self.exit_threshold}"
            )


class OverloadDetector:
    """Hysteretic queue-delay EWMA: are we overloaded right now?

    Feed it the queue delay of every message as it *starts service*
    (arrival-to-service, the quantity clients actually experience); read
    :attr:`overloaded`.  Transitions are counted so experiments can report
    how often the server flipped modes.
    """

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self.ewma: Optional[float] = None
        self.overloaded = False
        self.onsets = 0
        self.recoveries = 0

    def observe(self, queue_delay: float) -> bool:
        """Fold in one observation; returns the post-update state."""
        if self.ewma is None:
            self.ewma = queue_delay
        else:
            self.ewma += self.config.alpha * (queue_delay - self.ewma)
        if not self.overloaded and self.ewma > self.config.enter_threshold:
            self.overloaded = True
            self.onsets += 1
        elif self.overloaded and self.ewma < self.config.exit_threshold:
            self.overloaded = False
            self.recoveries += 1
        return self.overloaded


__all__ = [
    "DeadlineAwareShed",
    "DropTail",
    "OverloadConfig",
    "OverloadDetector",
    "QueuedItem",
    "RandomEarlyShed",
    "SHEDDING_POLICIES",
    "ServiceClass",
    "SheddingPolicy",
    "TokenBucket",
    "TokenBucketConfig",
    "make_shedding_policy",
]

"""Links: delay + loss + availability for one edge of the topology.

A :class:`Link` bundles everything the transport needs to know about one
communication path: the one-way delay model for each direction, a loss
probability, and an up/down flag (used both for injected link failures and
for network partitions).

Chaos hooks: :attr:`Link.fault_loss`, :attr:`Link.delay_scale` and
:attr:`Link.delay_extra` let a fault injector superimpose loss bursts and
delay spikes on a live link without replacing its delay models; at their
defaults they are exact no-ops (same RNG draws, same sampled delays), so
fault-free runs are bit-identical with or without the hooks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delay import DelayModel, UniformDelay


@dataclass
class LinkStats:
    """Per-link delivery counters."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    blocked: int = 0  # link down or partitioned


class Link:
    """State and behaviour of one bidirectional communication path.

    Args:
        delay: One-way delay model (applied independently per message and
            direction, giving the paper's independent σ and ρ legs).
        loss_probability: Chance an individual message is silently dropped.
        up: Initial availability.
        reverse_delay: Optional distinct delay model for the *reverse*
            direction (see :meth:`try_send`'s ``forward`` flag), modelling
            asymmetric paths — the case midpoint-compensating algorithms
            cannot detect but interval algorithms tolerate by construction.
    """

    def __init__(
        self,
        delay: DelayModel | None = None,
        loss_probability: float = 0.0,
        up: bool = True,
        reverse_delay: DelayModel | None = None,
    ) -> None:
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1], got {loss_probability}"
            )
        self.delay = delay if delay is not None else UniformDelay(0.05)
        self.reverse_delay = reverse_delay
        self.loss_probability = float(loss_probability)
        self.up = bool(up)
        self.partitioned = False
        self.stats = LinkStats()
        # Fault-injection knobs (see module docstring); no-ops at defaults.
        self.fault_loss = 0.0
        self.delay_scale = 1.0
        self.delay_extra = 0.0

    @property
    def available(self) -> bool:
        """Whether messages can currently cross this link."""
        return self.up and not self.partitioned

    def take_down(self) -> None:
        """Fail the link (messages are blocked until :meth:`bring_up`)."""
        self.up = False

    def bring_up(self) -> None:
        """Repair the link."""
        self.up = True

    def try_send(self, rng: np.random.Generator, forward: bool = True) -> float | None:
        """Attempt one message crossing.

        Args:
            rng: Random stream for loss and delay sampling.
            forward: Direction flag; the reverse direction uses
                ``reverse_delay`` when configured (symmetric otherwise).

        Returns:
            The sampled one-way delay, or None if the message was blocked
            (link down/partitioned) or lost.
        """
        self.stats.sent += 1
        if not self.up or self.partitioned:
            self.stats.blocked += 1
            return None
        # Independent native-loss and fault-burst coin flips so that a
        # fault_loss of 0 draws exactly the same RNG sequence as before.
        if self.loss_probability > 0.0 and rng.uniform() < self.loss_probability:
            self.stats.lost += 1
            return None
        if self.fault_loss > 0.0 and rng.uniform() < self.fault_loss:
            self.stats.lost += 1
            return None
        self.stats.delivered += 1
        model = self.delay
        if not forward and self.reverse_delay is not None:
            model = self.reverse_delay
        return model.sample(rng) * self.delay_scale + self.delay_extra

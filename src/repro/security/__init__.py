"""On-path adversary hardening: authenticated, replay-safe sync messages.

Every robustness layer below this one assumes messages arrive as sent —
the Byzantine subsystem defends against servers that lie about their own
clocks, but nothing defended the wire.  This package closes that gap:

* :mod:`~repro.security.auth` — keyed-MAC authentication over a
  canonical encoding of the wire messages, with a rotating per-cluster
  keyring.
* :mod:`~repro.security.replay` — per-peer nonce replay guard with a
  bounded acceptance window.
* :mod:`~repro.security.delayguard` — delay-attack detection against
  the link's declared :class:`~repro.network.delay.DelayModel` physics,
  widening the adopted interval when a suspect transit is tolerated.
* :mod:`~repro.security.server` — :class:`SecurityStage`, wiring the
  three guards into any server and their rejections into the
  hardening/Byzantine quarantine stack.
"""

from .auth import (
    AuthVerdict,
    Keyring,
    MessageAuthenticator,
    canonical_decode,
    canonical_encode,
)
from .delayguard import DelayGuard, DelayVerdict
from .replay import ReplayGuard, ReplayVerdict
from .server import SecurityConfig, SecurityStage, SecurityStats

__all__ = [
    "AuthVerdict",
    "DelayGuard",
    "DelayVerdict",
    "Keyring",
    "MessageAuthenticator",
    "ReplayGuard",
    "ReplayVerdict",
    "SecurityConfig",
    "SecurityStage",
    "SecurityStats",
    "canonical_decode",
    "canonical_encode",
]

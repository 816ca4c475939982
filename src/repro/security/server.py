"""Authenticated time servers: the security layer composed into the stack.

:class:`SecurityStage` threads the three guards through the
:class:`~repro.service.server.TimeServer` security hooks:

* outgoing requests and replies are signed (:meth:`_prepare_request` /
  :meth:`_prepare_reply`);
* inbound sync-plane requests must verify and be replay-fresh before
  they are answered (:meth:`_admit_request`) — client queries stay open
  by default, a real deployment's anonymous read path;
* inbound poll/recovery replies are judged once their RTT is known
  (:meth:`_admit_reply`): transit physics first (a reply faster than the
  link's declared floor is forged or pre-played — the delay attack's
  signature), then the MAC, then the replay window, then the declared
  delay ceiling (reject or widen per configuration).

Every security rejection goes down the server's one rejection path
(:meth:`~repro.service.server.TimeServer._peer_rejected`), the same one
failed reply validation takes: repeated failures decay the peer's health
score into quarantine, and on a Byzantine-tolerant server they also
register falseticker evidence — an on-path adversary corrupting a
peer's link is indistinguishable, from the victim's seat, from that
peer lying, and the defence is the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..network.delay import DelayModel
from ..service.messages import RequestKind, TimeReply, TimeRequest
from ..service.server import Stage, TimeServer
from ..telemetry.registry import metric_field
from .auth import Keyring, MessageAuthenticator
from .delayguard import DelayGuard
from .replay import ReplayGuard

__all__ = ["SecurityConfig", "SecurityStage", "SecurityStats"]


@dataclass
class SecurityConfig:
    """Knobs of the on-path security layer.

    Attributes:
        keyring: The cluster's shared MAC keyring (built per service by
            the builder when authentication is enabled).
        require_auth: Refuse unauthenticated/invalid sync-plane messages.
        authenticate_clients: Also require ``CLIENT`` requests to carry a
            valid MAC.  Off by default: the anonymous read path stays
            open, and a forged client *request* can at worst cost one
            reply (a residual risk documented in ``docs/security.md``).
        replay_window: Per-peer anti-replay window (sequence numbers).
        delay_guard: Judge reply RTTs against the links' declared
            :class:`~repro.network.delay.DelayModel` physics.
        delay_mode: ``"widen"`` tolerates a beyond-bound transit with the
            excess charged to the adopted error; ``"reject"`` drops it.
        delay_slack: Measurement slack (seconds) for the delay guard.
    """

    keyring: Keyring = field(default_factory=lambda: Keyring.from_secret("repro"))
    require_auth: bool = True
    authenticate_clients: bool = False
    replay_window: int = 64
    delay_guard: bool = True
    delay_mode: str = "widen"
    delay_slack: float = 1e-4


@dataclass
class SecurityStats:
    """Counters of the security layer (``repro_<field>_total`` families)."""

    prefix = "repro_"

    auth_failures: int = metric_field(
        "Messages rejected by MAC verification (missing/unknown-key/bad-mac)"
    )
    replay_drops: int = metric_field("Messages rejected by the anti-replay window")
    delay_attack_detections: int = metric_field(
        "Replies rejected by the delay guard (too-fast or beyond-bound)"
    )
    delay_widens: int = metric_field(
        "Replies tolerated beyond the declared delay bound with the "
        "excess charged to the adopted error"
    )


class SecurityStage(Stage):
    """MAC + replay + delay-guard enforcement, as a server stage.

    Args:
        config: The security knobs; None uses :class:`SecurityConfig`
            defaults.  Servers that must talk share one config (and so
            one keyring).
    """

    exports = ("security", "security_stats", "authenticator", "rotate_key")

    def __init__(self, config: Optional[SecurityConfig] = None) -> None:
        self.security = config if config is not None else SecurityConfig()
        self.authenticator = MessageAuthenticator(self.security.keyring)
        self._request_replay = ReplayGuard(self.security.replay_window)
        self._reply_replay = ReplayGuard(self.security.replay_window)
        self._link_models: dict = {}

    def attach(self, server: TimeServer) -> None:
        super().attach(server)
        self.security_stats = SecurityStats()
        self._delay_guard = (
            DelayGuard(
                server.delta,
                mode=self.security.delay_mode,
                slack=self.security.delay_slack,
            )
            if self.security.delay_guard
            else None
        )
        self._key_epoch_gauge = server.telemetry.registry.gauge(
            "repro_security_key_epoch",
            "The keyring's rotation epoch (0 = initial keys)",
            ("server",),
        ).labels()
        self._key_epoch_gauge.set(float(self.security.keyring.epoch))

    # ------------------------------------------------------------ keyring

    def rotate_key(self) -> int:
        """Rotate the cluster keyring's signing key (shared object: one
        rotation serves every server on the ring)."""
        new_id = self.security.keyring.rotate()
        self._key_epoch_gauge.set(float(self.security.keyring.epoch))
        self.server._trace("key_rotation", key_id=new_id)
        return new_id

    # ------------------------------------------------------------ signing

    def _prepare_request(self, request: TimeRequest) -> TimeRequest:
        return self.authenticator.sign(request)

    def _prepare_reply(self, reply: TimeReply) -> TimeReply:
        if (
            reply.kind is RequestKind.CLIENT
            and not self.security.authenticate_clients
        ):
            # Anonymous clients share no cluster key: a MAC they cannot
            # check is pure hot-path cost.  With ``authenticate_clients``
            # the client plane is keyed, and answers are signed too.
            return reply
        return self.authenticator.sign(reply)

    # -------------------------------------------------------- enforcement

    def _reject(self, peer: str, reason: str) -> str:
        """Trace a security rejection and feed it into the server's one
        rejection path (peer health, falseticker evidence)."""
        self.server._trace("security_rejection", server=peer, reason=reason)
        self.server._peer_rejected(peer)
        return reason

    def _admit_request(self, request: TimeRequest) -> Optional[str]:
        cfg = self.security
        if not cfg.require_auth:
            return None
        if request.kind is RequestKind.CLIENT and not cfg.authenticate_clients:
            return None
        verdict = self.authenticator.verify(request)
        if verdict != "ok":
            self.security_stats.auth_failures += 1
            return self._reject(request.origin, f"auth:{verdict}")
        freshness = self._request_replay.admit(request.origin, request.auth[1])
        if freshness != "ok":
            self.security_stats.replay_drops += 1
            return self._reject(request.origin, f"replay:{freshness}")
        return None

    def _link_delay_models(
        self, peer: str
    ) -> tuple[Optional[DelayModel], Optional[DelayModel]]:
        """The declared (outbound, inbound) delay models of the peer link.

        Cached per peer: link objects (and their delay models) persist
        for the life of the topology — even across edge down/up cycles,
        which reuse the same :class:`~repro.network.link.Link`.
        """
        cached = self._link_models.get(peer)
        if cached is not None:
            return cached
        name = self.server.name
        try:
            link = self.server.network.link(name, peer)
        except KeyError:
            return None, None  # uncached: the link may appear later
        reverse = link.reverse_delay if link.reverse_delay is not None else link.delay
        if min(name, peer) == name:
            models = (link.delay, reverse)  # we are the forward direction
        else:
            models = (reverse, link.delay)
        self._link_models[peer] = models
        return models

    def _admit_reply(
        self, reply: TimeReply, rtt_local: float
    ) -> tuple[Optional[str], float]:
        cfg = self.security
        judged = None
        if self._delay_guard is not None:
            outbound, inbound = self._link_delay_models(reply.server)
            judged = self._delay_guard.judge(rtt_local, outbound, inbound)
            # Physics before cryptography: a too-fast transit is the
            # delay attack's signature even when the MAC also fails
            # (cached genuine data pre-played with a rewritten header).
            if judged.verdict == "too-fast":
                self.security_stats.delay_attack_detections += 1
                return self._reject(reply.server, "delay:too-fast"), 0.0
        if cfg.require_auth:
            verdict = self.authenticator.verify(reply)
            if verdict != "ok":
                self.security_stats.auth_failures += 1
                return self._reject(reply.server, f"auth:{verdict}"), 0.0
            freshness = self._reply_replay.admit(reply.server, reply.auth[1])
            if freshness != "ok":
                self.security_stats.replay_drops += 1
                return self._reject(reply.server, f"replay:{freshness}"), 0.0
        if judged is not None:
            if judged.verdict == "beyond-bound":
                self.security_stats.delay_attack_detections += 1
                return self._reject(reply.server, "delay:beyond-bound"), 0.0
            if judged.widen > 0.0:
                self.security_stats.delay_widens += 1
                self.server._trace(
                    "delay_widen", server=reply.server, widen=judged.widen
                )
                return None, judged.widen
        return None, 0.0

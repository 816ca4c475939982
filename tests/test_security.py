"""On-path security layer: auth, replay window, delay guard, and wiring.

Covers the :mod:`repro.security` units (keyring rotation, canonical
encoding, MAC sign/verify, the anti-replay window, the delay guard), the
:class:`~repro.security.server.SecurityStage` enforcement order,
the nonce-keyed cross-round reply defense, and the quarantine /
falseticker escalation fed by repeated security rejections.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.byzantine import ByzantineConfig, ByzantineStage
from repro.core.ft_im import FTIMPolicy
from repro.core.mm import MMPolicy
from repro.faults import FaultSchedule, MessageTamper
from repro.faults.injector import FaultInjector
from repro.network.delay import UniformDelay
from repro.network.topology import full_mesh
from repro.security import (
    DelayGuard,
    Keyring,
    MessageAuthenticator,
    ReplayGuard,
    SecurityConfig,
    SecurityStage,
    canonical_decode,
    canonical_encode,
)
from repro.service.builder import ServerSpec, build_service
from repro.service.hardening import HardeningStage
from repro.service.messages import RequestKind, TimeReply, TimeRequest

pytestmark = pytest.mark.security


def make_secure_mesh(
    n=3,
    *,
    tau=30.0,
    one_way=0.01,
    minimum=0.0,
    seed=0,
    secret="test-cluster",
    byzantine=False,
    **security_kwargs,
):
    """A full-mesh service of authenticated servers sharing one keyring."""
    specs = [
        ServerSpec(
            f"S{k + 1}",
            delta=1e-5,
            skew=0.9e-5 * (2.0 * k / (n - 1) - 1.0) if n > 1 else 0.0,
            byzantine_tolerant=byzantine,
        )
        for k in range(n)
    ]
    kwargs = {}
    if byzantine:
        kwargs["policy_factory"] = lambda name: FTIMPolicy()
        kwargs["byzantine"] = ByzantineConfig()
    else:
        kwargs["policy"] = MMPolicy()
    return build_service(
        full_mesh(n),
        specs,
        tau=tau,
        seed=seed,
        lan_delay=UniformDelay(one_way, minimum=minimum),
        security=SecurityConfig(
            keyring=Keyring.from_secret(secret), **security_kwargs
        ),
        **kwargs,
    )


# ------------------------------------------------------------------ keyring


class TestKeyring:
    def test_from_secret_deterministic(self):
        a = Keyring.from_secret("s3cret")
        b = Keyring.from_secret("s3cret")
        assert a.key(a.active_id) == b.key(b.active_id)
        assert a.epoch == 0

    def test_rotation_bumps_epoch_and_keeps_old_keys(self):
        ring = Keyring.from_secret("s3cret")
        old_id = ring.active_id
        new_id = ring.rotate()
        assert new_id != old_id
        assert ring.epoch == 1
        assert ring.key(old_id) is not None  # still verifies old traffic

    def test_retire_refuses_active_key(self):
        ring = Keyring.from_secret("s3cret")
        with pytest.raises(ValueError):
            ring.retire(ring.active_id)

    def test_retired_key_no_longer_verifies(self):
        ring = Keyring.from_secret("s3cret")
        signer = MessageAuthenticator(ring)
        request = signer.sign(TimeRequest(1, "S1", "S2", nonce=7))
        old_id = ring.active_id
        ring.rotate()
        assert signer.verify(request) == "ok"
        ring.retire(old_id)
        assert signer.verify(request) == "unknown-key"


# ------------------------------------------------------- canonical encoding


class TestCanonicalEncoding:
    def test_request_round_trip(self):
        request = TimeRequest(3, "S1", "S2", RequestKind.RECOVERY, nonce=99)
        assert canonical_decode(canonical_encode(request)) == request

    def test_reply_round_trip(self):
        reply = TimeReply(
            4, "S2", "S1", 100.5, 0.25, delta=1e-5, epoch=2, nonce=41
        )
        assert canonical_decode(canonical_encode(reply)) == reply

    def test_auth_tag_not_part_of_encoding(self):
        reply = TimeReply(4, "S2", "S1", 100.5, 0.25, nonce=41)
        tagged = replace(reply, auth=(1, 2, "ab" * 16))
        assert canonical_encode(reply) == canonical_encode(tagged)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_encode("not a message")

    def test_garbage_bytes_rejected(self):
        for junk in (b"('REQ', 1)", b"nonsense", b"[1, 2, 3]"):
            with pytest.raises(ValueError):
                canonical_decode(junk)


# ---------------------------------------------------------------------- mac


class TestMessageAuthenticator:
    def _signed_reply(self, authenticator):
        return authenticator.sign(
            TimeReply(7, "S2", "S1", 123.0, 0.5, nonce=17)
        )

    def test_sign_verify_round_trip(self):
        auth = MessageAuthenticator(Keyring.from_secret("k"))
        assert auth.verify(self._signed_reply(auth)) == "ok"

    def test_any_field_tamper_detected(self):
        auth = MessageAuthenticator(Keyring.from_secret("k"))
        reply = self._signed_reply(auth)
        for tampered in (
            replace(reply, clock_value=reply.clock_value + 1e-9),
            replace(reply, error=reply.error * 0.5),
            replace(reply, request_id=reply.request_id + 1),
            replace(reply, nonce=reply.nonce + 1),
            replace(reply, server="S3"),
        ):
            assert auth.verify(tampered) == "bad-mac"

    def test_missing_or_malformed_tag(self):
        auth = MessageAuthenticator(Keyring.from_secret("k"))
        bare = TimeReply(7, "S2", "S1", 123.0, 0.5, nonce=17)
        assert auth.verify(bare) == "missing-auth"
        assert auth.verify(replace(bare, auth=(1, "x"))) == "missing-auth"

    def test_wrong_cluster_key_rejected(self):
        signer = MessageAuthenticator(Keyring.from_secret("ours"))
        verifier = MessageAuthenticator(Keyring.from_secret("theirs"))
        assert verifier.verify(self._signed_reply(signer)) == "bad-mac"

    def test_rotation_old_traffic_still_verifies(self):
        ring = Keyring.from_secret("k")
        auth = MessageAuthenticator(ring)
        old = self._signed_reply(auth)
        ring.rotate()
        fresh = self._signed_reply(auth)
        assert auth.verify(old) == "ok"
        assert auth.verify(fresh) == "ok"
        assert fresh.auth[0] != old.auth[0]


# ------------------------------------------------------------------- replay


class TestReplayGuard:
    def test_fresh_sequences_accepted(self):
        guard = ReplayGuard(window=8)
        for seq in (1, 2, 5, 3, 9):
            assert guard.admit("S2", seq) == "ok"

    def test_duplicate_rejected(self):
        guard = ReplayGuard(window=8)
        assert guard.admit("S2", 4) == "ok"
        assert guard.admit("S2", 4) == "replay"

    def test_below_window_stale(self):
        guard = ReplayGuard(window=8)
        assert guard.admit("S2", 100) == "ok"
        assert guard.admit("S2", 92) == "stale"
        assert guard.admit("S2", 93) == "ok"  # exactly in-window, unseen

    def test_per_peer_state_independent(self):
        guard = ReplayGuard(window=8)
        assert guard.admit("S2", 4) == "ok"
        assert guard.admit("S3", 4) == "ok"

    def test_forget_resets_peer(self):
        guard = ReplayGuard(window=8)
        guard.admit("S2", 4)
        guard.forget("S2")
        assert guard.admit("S2", 4) == "ok"


# -------------------------------------------------------------- delay guard


class TestDelayGuard:
    def _models(self):
        return UniformDelay(0.01, minimum=0.002), UniformDelay(
            0.01, minimum=0.002
        )

    def test_honest_rtt_in_bounds_ok(self):
        guard = DelayGuard(1e-4)
        out, inn = self._models()
        for rtt in (0.004, 0.01, 0.02):
            verdict = guard.judge(rtt, out, inn)
            assert verdict.ok and verdict.widen == 0.0

    def test_too_fast_always_rejected(self):
        for mode in ("widen", "reject"):
            guard = DelayGuard(1e-4, mode=mode)
            out, inn = self._models()
            assert guard.judge(0.0005, out, inn).verdict == "too-fast"

    def test_beyond_bound_mode_dependent(self):
        out, inn = self._models()
        widen = DelayGuard(1e-4, mode="widen").judge(0.08, out, inn)
        assert widen.ok and widen.widen == pytest.approx(
            0.08 - 0.02 * 1.0001, rel=1e-6
        )
        assert (
            DelayGuard(1e-4, mode="reject").judge(0.08, out, inn).verdict
            == "beyond-bound"
        )

    def test_unknown_link_physics_passes(self):
        guard = DelayGuard(1e-4)
        assert guard.judge(1e-9, None, None).ok

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DelayGuard(1e-4, mode="panic")
        with pytest.raises(ValueError):
            DelayGuard(1e-4, slack=-1.0)


# ----------------------------------------------------------- stage wiring


class TestAuthenticatedService:
    def test_builder_produces_authenticated_servers(self):
        service = make_secure_mesh(3)
        for server in service.servers.values():
            assert server.stage(SecurityStage) is not None
            assert server.stage(HardeningStage) is not None

    def test_authenticated_mesh_converges_cleanly(self):
        service = make_secure_mesh(3, tau=30.0)
        service.run_until(600.0)
        snap = service.snapshot()
        assert snap.all_correct
        for server in service.servers.values():
            assert server.security_stats.auth_failures == 0
            assert server.security_stats.replay_drops == 0
            assert server.security_stats.delay_attack_detections == 0

    def test_byzantine_composition(self):
        service = make_secure_mesh(4, byzantine=True)
        for server in service.servers.values():
            assert server.stage(SecurityStage) is not None
            assert server.stage(ByzantineStage) is not None
        service.run_until(200.0)
        assert service.snapshot().all_correct

    def test_outgoing_messages_signed(self):
        service = make_secure_mesh(2, tau=10.0)
        seen = []
        service.network.add_tap(
            lambda src, dst, message, delay: seen.append(message) and None
        )
        service.run_until(30.0)
        assert seen
        for message in seen:
            assert len(message.auth) == 3

    def test_tampered_reply_rejected_and_counted(self):
        service = make_secure_mesh(2, tau=10.0)
        s1 = service.servers["S1"]
        reply = s1.authenticator.sign(
            TimeReply(1, "S2", "S1", 5.0, 0.5, nonce=3)
        )
        rejection, _ = s1._admit_reply(
            replace(reply, clock_value=99.0), 0.01
        )
        assert rejection == "auth:bad-mac"
        assert s1.security_stats.auth_failures == 1

    def test_replayed_reply_rejected_and_counted(self):
        service = make_secure_mesh(2, tau=10.0)
        s1 = service.servers["S1"]
        reply = s1.authenticator.sign(
            TimeReply(1, "S2", "S1", 5.0, 0.5, nonce=3)
        )
        assert s1._admit_reply(reply, 0.01)[0] is None
        rejection, _ = s1._admit_reply(reply, 0.01)
        assert rejection == "replay:replay"
        assert s1.security_stats.replay_drops == 1

    def test_replayed_request_refused(self):
        service = make_secure_mesh(2, tau=10.0)
        s1, s2 = service.servers["S1"], service.servers["S2"]
        request = s2.authenticator.sign(TimeRequest(1, "S2", "S1", nonce=5))
        assert s1._admit_request(request) is None
        assert s1._admit_request(request) == "replay:replay"
        assert s1.security_stats.replay_drops == 1

    def test_unauthenticated_client_requests_still_served(self):
        service = make_secure_mesh(2, tau=10.0)
        s1 = service.servers["S1"]
        bare = TimeRequest(1, "client", "S1", kind=RequestKind.CLIENT)
        assert s1._admit_request(bare) is None

    def test_client_auth_enforceable(self):
        service = make_secure_mesh(2, tau=10.0, authenticate_clients=True)
        s1 = service.servers["S1"]
        bare = TimeRequest(1, "client", "S1", kind=RequestKind.CLIENT)
        assert s1._admit_request(bare) == "auth:missing-auth"

    def test_too_fast_reply_rejected_before_mac(self):
        # Declared link floor 2 ms each way: a 0.1 ms round trip is
        # physically impossible — rejected as a delay attack even though
        # the MAC on this crafted reply would *also* fail.
        service = make_secure_mesh(2, tau=10.0, minimum=0.002)
        s1 = service.servers["S1"]
        reply = TimeReply(1, "S2", "S1", 5.0, 0.5, nonce=3)
        rejection, _ = s1._admit_reply(reply, 0.0001)
        assert rejection == "delay:too-fast"
        assert s1.security_stats.delay_attack_detections == 1
        assert s1.security_stats.auth_failures == 0

    def test_beyond_bound_reply_widens(self):
        service = make_secure_mesh(2, tau=10.0, minimum=0.002)
        s1 = service.servers["S1"]
        reply = s1.authenticator.sign(
            TimeReply(1, "S2", "S1", 5.0, 0.5, nonce=3)
        )
        rejection, widen = s1._admit_reply(reply, 0.5)
        assert rejection is None
        assert widen > 0.4
        assert s1.security_stats.delay_widens == 1

    def test_key_rotation_mid_run_keeps_service_converged(self):
        service = make_secure_mesh(3, tau=30.0)
        service.run_until(150.0)
        service.servers["S1"].rotate_key()
        service.run_until(400.0)
        snap = service.snapshot()
        assert snap.all_correct
        for server in service.servers.values():
            assert server.security_stats.auth_failures == 0
            assert server.security.keyring.epoch == 1


# ----------------------------------------- satellite: cross-round replays


class TestCrossRoundReplay:
    """A recorded reply re-labelled into a later round must be dropped.

    Reply acceptance is keyed on the per-request nonce, not just the
    round id: an adversary who records round N's reply and rewrites its
    ``request_id`` to N+1 still cannot guess round N+1's nonce.
    """

    def _service(self):
        specs = [
            ServerSpec("S1", delta=1e-5, skew=0.5e-5),
            ServerSpec("S2", delta=1e-5, skew=-0.5e-5),
        ]
        return build_service(
            full_mesh(2),
            specs,
            policy=MMPolicy(),
            tau=50.0,
            seed=1,
            lan_delay=UniformDelay(0.01),
        )

    def test_recorded_reply_replayed_into_next_round_dropped(self):
        service = self._service()
        recorded = []
        service.network.add_tap(
            lambda src, dst, message, delay: (
                recorded.append(message)
                if isinstance(message, TimeReply) and dst == "S1"
                else None
            )
        )
        service.run_until(60.0)  # at least one full round
        assert recorded
        s1 = service.servers["S1"]
        handled_before = s1.stats.replies_handled
        s1._start_round()
        assert s1._round is not None and not s1._round.closed
        stale = replace(recorded[0], request_id=s1._round.round_id)
        s1._handle_reply(stale)
        assert s1.stats.replies_handled == handled_before

    def test_nonces_unique_per_destination_and_round(self):
        service = self._service()
        s1 = service.servers["S1"]
        seen = set()
        for _ in range(50):
            nonce = s1._next_nonce()
            assert nonce not in seen
            seen.add(nonce)


# -------------------------------------- satellite: quarantine escalation


class TestQuarantineEscalation:
    def _run_tampered(self, *, byzantine: bool, horizon: float):
        service = make_secure_mesh(
            4 if byzantine else 3, tau=10.0, byzantine=byzantine
        )
        schedule = FaultSchedule().add(
            MessageTamper(
                at=0.0, a="S1", b="S2", offset=0.5, duration=horizon
            )
        )
        injector = FaultInjector(
            service.engine,
            service.network,
            service.servers,
            schedule,
            rng=service.rng.stream("faults/injector"),
            trace=service.trace,
        )
        injector.start()
        service.run_until(horizon)
        return service

    def test_tampering_link_peer_quarantined_within_bounded_rounds(self):
        # Default quarantine policy: two invalid replies tip a healthy
        # peer below threshold, so the third round is an upper bound.
        service = self._run_tampered(byzantine=False, horizon=40.0)
        assert "S1" in service.servers["S2"].quarantined_peers()
        assert "S2" in service.servers["S1"].quarantined_peers()
        # The untouched edge stays healthy.
        assert "S3" not in service.servers["S1"].quarantined_peers()

    def test_auth_failures_register_falseticker_evidence(self):
        service = self._run_tampered(byzantine=True, horizon=60.0)
        s2 = service.servers["S2"]
        assert s2.security_stats.auth_failures > 0
        assert s2.reputation.record("S1").validation_failures > 0

"""Behavioural tests for :class:`repro.load.server.LoadStage`."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.load.capacity import CapacityConfig, ServiceClass
from repro.load.server import LoadPolicy, LoadStage
from repro.load.admission import TokenBucketConfig
from repro.network.delay import ConstantDelay
from repro.service.builder import ServerSpec, build_service
from repro.service.client import QueryStrategy
from repro.service.messages import ReplyStatus, RequestKind, TimeReply, TimeRequest
from repro.simulation.process import SimProcess


class Probe(SimProcess):
    """A bare node that records every message it receives."""

    def __init__(self, engine, name, network):
        super().__init__(engine, name)
        self.network = network
        self.replies = []

    def on_message(self, message, sender):
        self.replies.append((self.now, message))


def make_service(capacity, load_policy=None, *, delta=1e-4):
    """One load-aware server S, a client hub C, a probe node P."""
    graph = nx.Graph([("C", "S"), ("P", "S")])
    service = build_service(
        graph,
        [ServerSpec("S", delta=delta, initial_error=0.01, polls=False)],
        policy=None,
        tau=60.0,
        seed=3,
        lan_delay=ConstantDelay(0.001),
        capacity=capacity,
        load_policy=load_policy,
    )
    client = service.add_client("C")
    client.start()
    probe = Probe(service.engine, "P", service.network)
    service.network.register(probe)
    probe.start()
    return service, client, probe


class TestFreshPath:
    def test_answer_costs_service_time(self):
        service, client, _probe = make_service(
            CapacityConfig(service_time=0.05, degraded_time=0.01)
        )
        results = []
        client.ask(["S"], QueryStrategy.FIRST_REPLY, callback=results.append)
        service.engine.run(until=0.04)
        assert results == []  # still on the CPU
        service.engine.run(until=0.2)
        assert len(results) == 1
        assert results[0].correct
        assert service.servers["S"].load_stats.fresh_replies == 1

    def test_requests_queue_behind_the_cpu(self):
        service, client, _probe = make_service(
            CapacityConfig(service_time=0.05, degraded_time=0.01, queue_limit=8)
        )
        results = []
        for _ in range(3):
            client.ask(["S"], callback=results.append)
        service.engine.run(until=1.0)
        assert len(results) == 3
        # Serial service: roughly service_time apart, not simultaneous.
        latencies = sorted(r.latency for r in results)
        assert latencies[-1] >= latencies[0] + 0.09


class TestShedding:
    def test_bucket_refusal_sends_busy_with_hint(self):
        service, client, _probe = make_service(
            CapacityConfig(service_time=0.001, degraded_time=0.0005),
            LoadPolicy(admission=TokenBucketConfig(rate=5.0, burst=1.0)),
        )
        client.ask(["S"])
        client.ask(["S"])  # same instant: the bucket holds one token
        service.engine.run(until=3.0)
        server = service.servers["S"]
        assert server.load_stats.busy_replies == 1
        assert server.bucket.refused == 1
        # The plain client ignores BUSY, so the second query failed.
        assert len(client.results) == 1 and len(client.failures) == 1

    def test_plain_policy_sheds_silently(self):
        service, client, _probe = make_service(
            CapacityConfig(
                service_time=0.05,
                degraded_time=0.01,
                queue_limit=1,
                prioritized=False,
                sync_evicts_client=False,
            ),
            LoadPolicy.plain(),
        )
        for _ in range(5):
            client.ask(["S"])
        service.engine.run(until=3.0)
        server = service.servers["S"]
        assert server.load_stats.busy_replies == 0
        assert server.load_stats.shed_silent == 3  # 1 serving + 1 queued
        assert len(client.failures) == 3

    def test_full_queue_evicts_client_for_poll(self):
        service, client, probe = make_service(
            CapacityConfig(
                service_time=0.5, degraded_time=0.1, queue_limit=2
            ),
            LoadPolicy(admission=None, shedding="drop-tail"),
        )
        for _ in range(3):  # one on the CPU, two queued: full
            client.ask(["S"])
        service.engine.run(until=0.01)
        server = service.servers["S"]
        assert server.queue.full
        service.network.send(
            "P",
            "S",
            TimeRequest(
                request_id=7, origin="P", destination="S", kind=RequestKind.POLL
            ),
        )
        service.engine.run(until=5.0)
        assert server.load_stats.sync_evictions == 1
        assert server.queue.stats.evicted[ServiceClass.CLIENT] == 1
        # The poll got in and was answered (priority: before the client).
        poll_replies = [
            m for _, m in probe.replies if isinstance(m, TimeReply)
        ]
        assert len(poll_replies) == 1
        assert poll_replies[0].status is ReplyStatus.OK
        # The evicted client request got a BUSY reply.
        assert server.load_stats.busy_replies == 1

    def test_full_queue_drops_poll_when_eviction_disabled(self):
        service, client, probe = make_service(
            CapacityConfig(
                service_time=0.5,
                degraded_time=0.1,
                queue_limit=2,
                prioritized=False,
                sync_evicts_client=False,
            ),
            LoadPolicy.plain(),
        )
        for _ in range(3):
            client.ask(["S"])
        service.engine.run(until=0.01)
        service.network.send(
            "P",
            "S",
            TimeRequest(
                request_id=7, origin="P", destination="S", kind=RequestKind.POLL
            ),
        )
        service.engine.run(until=5.0)
        server = service.servers["S"]
        assert server.load_stats.sync_drops == 1
        assert not any(isinstance(m, TimeReply) for _, m in probe.replies)


class TestDegradedMode:
    def test_degraded_reply_is_stale_wide_and_correct(self):
        service, client, _probe = make_service(
            CapacityConfig(service_time=0.01, degraded_time=0.002), delta=1e-3
        )
        server = service.servers["S"]
        service.engine.run(until=10.0)  # let the cache age
        server.detector.overloaded = True
        server.detector.ewma = 1.0  # stays above the exit threshold
        results = []
        client.ask(["S"], callback=results.append)
        service.engine.run(until=11.0)
        assert server.load_stats.degraded_replies == 1
        assert server.load_stats.degraded_correct == 1
        assert server.load_stats.fresh_replies == 0
        result = results[0]
        assert result.correct  # the whole point: degraded, never wrong
        # The served error carries the age inflation: ~10 s of age at
        # δ = 1e-3 inflates the cached error by at least age·δ.
        assert result.error > 0.01 + 10.0 * 1e-3

    def test_degraded_costs_less_cpu(self):
        service, client, _probe = make_service(
            CapacityConfig(service_time=0.2, degraded_time=0.001)
        )
        server = service.servers["S"]
        server.detector.overloaded = True
        server.detector.ewma = 1.0
        results = []
        client.ask(["S"], callback=results.append)
        service.engine.run(until=0.05)
        assert len(results) == 1  # far quicker than service_time

    def test_reset_refreshes_the_cache(self):
        service, _client, _probe = make_service(
            CapacityConfig(service_time=0.01, degraded_time=0.002)
        )
        server = service.servers["S"]
        service.engine.run(until=5.0)
        load = server.stage(LoadStage)
        before = load._cache
        # Any reset (here via the public clock interface + cache refresh
        # hook) must retake the cache so the age arithmetic stays sound.
        load._refresh_cache()
        after = load._cache
        assert after != before

    def test_busy_reply_never_feeds_a_peer(self):
        """A BUSY reply carries no usable interval and must be rejected
        by the server-side reply validation."""
        reply = TimeReply(
            request_id=1,
            server="S",
            destination="X",
            clock_value=0.0,
            error=float("inf"),
            kind=RequestKind.POLL,
            status=ReplyStatus.BUSY,
        )
        service, _client, _probe = make_service(
            CapacityConfig(service_time=0.01, degraded_time=0.002)
        )
        server = service.servers["S"]
        reason = server._validate_reply(reply)
        assert reason is not None and "busy" in reason

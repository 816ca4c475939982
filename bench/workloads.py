"""The six workloads: seeded inputs, one fixed-work lap each.

A *lap* builds the service from scratch (timed: ``setup_s``), runs an
untimed warm-up slice, then advances the service in fixed steps, timing
each step on the workload's time base and checking the outputs between
steps with the clock stopped.  A run (see ``run.py``) repeats laps until
its ``--seconds`` are spent; ``measure.py`` reads the run's figures off
the steps of all its laps.

The seed drives every input the program sees — service RNG seed, server
skews, client phase offsets, initial offsets of the live nodes — and
nothing else: sizes are the constants below.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.im import IMPolicy
from repro.core.mm import MMPolicy
from repro.experiments import scale_gauntlet
from repro.experiments.live_gauntlet import _free_ports
from repro.kernel import build_kernel_service, partition_names
from repro.kernel.sync import trace_digest
from repro.network.delay import UniformDelay
from repro.network.topology import full_mesh, stratum_hierarchy
from repro.runtime import wire
from repro.runtime.node import build_node
from repro.security import Keyring, SecurityConfig
from repro.service.builder import ServerSpec, build_service
from repro.service.client import QueryStrategy
from repro.service.hardening import HardeningConfig
from repro.service.messages import RequestKind, TimeReply, TimeRequest

from measure import Lap
from spans import Tracer

# Scalar plane (the old BENCH_engine.json sync_mesh shape: 43 200 events/lap).
MESH_SERVERS = 8
MESH_DELTA = 1e-5
MESH_TAU = 10.0
MESH_ONE_WAY = 0.01
MESH_STEPS = 360  # timed steps of one τ: 3 600 s simulated per lap
CLIENT_HUBS = 16
CLIENT_FANOUT = 3
CLIENT_PERIOD = 0.25
CLIENT_STEP = 1.0  # simulated seconds per timed step
CLIENT_STEPS = 220
# Kernel plane.
KERNEL_SERVERS = 10_000
KERNEL_TAU = scale_gauntlet.DEFAULT_TAU
KERNEL_WARM_CYCLES = 4
KERNEL_CYCLES = 50  # timed cycles per lap, one step each
KERNEL_CHECK_EVERY = 5  # snapshot() builds 10k-entry dicts; check every 5th cycle
# Live plane: loopback only, no real link is crossed.
LIVE_NODES = 3
LIVE_CLIENTS = 2  # closed loop, one outstanding query each; = nproc
LIVE_TAU = 0.25
LIVE_PROBE_PERIOD = 0.05
LIVE_WARM_S = 0.5
LIVE_STEP_S = 0.125  # half a τ: ~1 600 queries, so ~16 beyond a step's p99
LIVE_STEPS = 16  # a 2 s window per lap
LIVE_TIMEOUT_S = 0.5

SIZES = {
    name: value
    for name, value in list(globals().items())
    if name.isupper() and isinstance(value, (int, float))
}


# ------------------------------------------------------------- scalar plane


def _mesh_specs(seed: int) -> List[ServerSpec]:
    # The seed deals out a fixed ladder of skews (BENCH_engine.json's), each
    # trimmed by up to 5 %, rather than drawing them freely: IM's error tracks
    # the spread of the skews, and a drawn spread moved server_error_mean_s
    # by 22 % from seed to seed.
    rng = np.random.default_rng([seed, 1])
    ladder = [(-1) ** k * 0.8 * (k + 1) / MESH_SERVERS for k in range(MESH_SERVERS)]
    skews = rng.permutation(ladder) * rng.uniform(0.95, 1.0, MESH_SERVERS)
    return [
        ServerSpec(name=f"S{k + 1}", delta=MESH_DELTA, skew=float(skews[k]) * MESH_DELTA)
        for k in range(MESH_SERVERS)
    ]


def _build_mesh(seed: int, *, auth: bool):
    extra: Dict[str, Any] = {}
    if auth:
        extra["hardening"] = HardeningConfig()
        extra["security"] = SecurityConfig(keyring=Keyring.from_secret(f"bench-{seed}"))
    return build_service(
        full_mesh(MESH_SERVERS),
        _mesh_specs(seed),
        policy=MMPolicy(),
        tau=MESH_TAU,
        seed=seed,
        lan_delay=UniformDelay(MESH_ONE_WAY),
        **extra,
    )


def _build_clients(seed: int):
    graph = full_mesh(MESH_SERVERS)
    targets = {}
    for k in range(CLIENT_HUBS):
        hub = f"C{k + 1}"
        targets[hub] = [f"S{(k + j) % MESH_SERVERS + 1}" for j in range(CLIENT_FANOUT)]
        graph.add_node(hub)
        graph.add_edges_from((hub, server) for server in targets[hub])
    service = build_service(
        graph,
        _mesh_specs(seed),
        policy=IMPolicy(),
        tau=MESH_TAU,
        seed=seed,
        lan_delay=UniformDelay(MESH_ONE_WAY),
    )
    phases = np.random.default_rng([seed, 2]).uniform(0.0, CLIENT_PERIOD, CLIENT_HUBS)
    for (hub, servers), phase in zip(targets.items(), phases):
        client = service.add_client(hub)
        client.start()  # the service started before the clients joined

        def tick(client=client, servers=servers) -> None:
            client.ask(servers, strategy=QueryStrategy.INTERSECT)
            client.call_after(CLIENT_PERIOD, tick)

        client.engine.schedule_after(float(phase), tick)
    return service


def _scalar_lap(
    build: Callable[[], Any], step_s: float, steps: int, tracer: Optional[Tracer]
) -> Lap:
    gc.collect()
    wall, cpu = time.perf_counter, time.process_time
    started = wall()
    service = build()
    setup_s = wall() - started
    service.run_until(MESH_TAU)  # warm-up: every server's first poll round
    engine, clients = service.engine, service.clients
    servers = list(service.servers.values())

    def exchanges() -> int:  # completed peer polls
        return sum(server.stats.replies_handled for server in servers)

    events_done, exchanges_done = engine.events_processed, exchanges()
    stats_before = _scalar_stats(service)
    seen = [len(client.results) for client in clients]
    failures_before = sum(len(client.failures) for client in clients)
    durations: List[float] = []
    step_events: List[int] = []
    step_queries: List[int] = []
    server_errors: List[float] = []
    client_errors: List[float] = []
    wall_s = 0.0
    attempted = failed = 0
    for k in range(1, steps + 1):
        target = MESH_TAU + k * step_s
        if tracer is not None:
            tracer.enabled = True
        w0, c0 = wall(), cpu()
        service.run_until(target)
        c1, w1 = cpu(), wall()
        if tracer is not None:
            tracer.enabled = False
        durations.append(c1 - c0)
        wall_s += w1 - w0
        step_events.append(engine.events_processed - events_done)
        events_done += step_events[-1]
        snapshot = service.snapshot()
        attempted += 1
        failed += not snapshot.all_correct
        server_errors.extend(snapshot.errors.values())
        answered = 0
        for index, client in enumerate(clients):
            fresh = client.results[seen[index]:]
            seen[index] += len(fresh)
            answered += len(fresh)
            failed += sum(not result.correct for result in fresh)
            client_errors.extend(result.error for result in fresh)
        attempted += answered
        # A query is a completed request->reply exchange its caller waited
        # for: client queries where there are clients, peer polls elsewhere.
        if not clients:
            answered = exchanges() - exchanges_done
            exchanges_done += answered
        step_queries.append(answered)
    timed_out = sum(len(client.failures) for client in clients) - failures_before
    return Lap(
        setup_s=setup_s,
        steps=durations,
        step_events=step_events,
        step_queries=step_queries,
        wall_s=wall_s,
        cpu_s=sum(durations),
        attempted=attempted + timed_out,
        failed=failed + timed_out,
        server_errors=server_errors,
        client_errors=client_errors,
        behaviour={
            "digest": trace_digest(service.trace),
            "events": engine.events_processed,
        },
        stats={
            key: value - stats_before[key] for key, value in _scalar_stats(service).items()
        },
    )


def _scalar_stats(service) -> Dict[str, float]:
    """The program's own counters (the *stat* layer metrics), for the
    layers this service was built with."""
    servers = list(service.servers.values())
    stats: Dict[str, float] = {
        "network.transport.delivered": service.network.stats.delivered,
        "network.transport.dropped": service.network.stats.dropped,
        "service.server.rounds": sum(s.stats.rounds for s in servers),
        "service.server.resets": sum(s.stats.resets for s in servers),
        "service.server.requests_answered": sum(s.stats.requests_answered for s in servers),
    }
    if service.clients:
        stats["service.client.results"] = sum(len(c.results) for c in service.clients)
        stats["service.client.failures"] = sum(len(c.failures) for c in service.clients)
    hardened = [s.hardening_stats for s in servers if hasattr(s, "hardening_stats")]
    if hardened:
        stats["service.hardening.invalid_replies"] = sum(s.stats.invalid_replies for s in servers)
        stats["service.hardening.retries"] = sum(h.retries_sent for h in hardened)
        stats["service.hardening.quarantines"] = sum(h.quarantines for h in hardened)
    secured = [s.security_stats for s in servers if hasattr(s, "security_stats")]
    for counter in ("auth_failures", "replay_drops", "delay_widens") if secured else ():
        stats[f"security.auth.{counter}"] = sum(getattr(s, counter) for s in secured)
    return stats


def sync_mesh_plain(seed: int, tracer: Optional[Tracer] = None) -> Lap:
    return _scalar_lap(lambda: _build_mesh(seed, auth=False), MESH_TAU, MESH_STEPS, tracer)


def sync_mesh_auth(seed: int, tracer: Optional[Tracer] = None) -> Lap:
    return _scalar_lap(lambda: _build_mesh(seed, auth=True), MESH_TAU, MESH_STEPS, tracer)


def service_clients_im(seed: int, tracer: Optional[Tracer] = None) -> Lap:
    return _scalar_lap(lambda: _build_clients(seed), CLIENT_STEP, CLIENT_STEPS, tracer)


# ------------------------------------------------------------- kernel plane


def kernel_lap(
    seed: int, tracer: Optional[Tracer] = None, *, shards: int, processes: int
) -> Lap:
    gc.collect()
    wall, cpu = time.perf_counter, time.process_time
    base = wall if processes else cpu  # worker CPU is not the parent's
    started = wall()
    graph = stratum_hierarchy(KERNEL_SERVERS)
    service = build_kernel_service(
        graph,
        scale_gauntlet.build_specs(graph),
        policy=IMPolicy(),
        tau=KERNEL_TAU,
        seed=seed,
        lan_delay=UniformDelay(scale_gauntlet.ONE_WAY),
        mode="bulk",
        shards=shards,
        processes=processes,
        trace_enabled=False,
    )
    setup_s = wall() - started
    try:
        # run_until(t) steps cycle c once phase_max + c·τ + 2·bound <= t, and
        # 0 < phase_max < τ: at this t exactly `cycles` cycles are done.
        def close_of(cycles: int) -> float:
            return cycles * KERNEL_TAU + 2.0 * scale_gauntlet.ONE_WAY

        service.run_until(close_of(KERNEL_WARM_CYCLES))
        events_done = service.events_processed
        durations: List[float] = []
        step_events: List[int] = []
        server_errors: List[float] = []
        wall_s = cpu_s = 0.0
        attempted = failed = 0
        for k in range(1, KERNEL_CYCLES + 1):
            target = close_of(KERNEL_WARM_CYCLES + k)
            if tracer is not None:
                tracer.enabled = True
            w0, c0, b0 = wall(), cpu(), base()
            service.run_until(target)
            b1, c1, w1 = base(), cpu(), wall()
            if tracer is not None:
                tracer.enabled = False
            durations.append(b1 - b0)
            wall_s += w1 - w0
            cpu_s += c1 - c0
            step_events.append(service.events_processed - events_done)
            events_done += step_events[-1]
            if k % KERNEL_CHECK_EVERY == 0:
                snapshot = service.snapshot()
                attempted += 1
                failed += not snapshot.all_correct
                if k == KERNEL_CYCLES:
                    server_errors = list(snapshot.errors.values())
        failed += service.cycles_done - KERNEL_WARM_CYCLES != KERNEL_CYCLES
        worker_rss_kb = sum(
            _peak_rss_kb(child.pid) for child in multiprocessing.active_children()
        )
        return Lap(
            setup_s=setup_s,
            steps=durations,
            step_events=step_events,
            # one poll per server per cycle, then a request and a reply
            # delivery per exchange: the rest of the ledger is exchanges.
            step_queries=[(events - KERNEL_SERVERS) // 2 for events in step_events],
                wall_s=wall_s,
            cpu_s=cpu_s,
            attempted=attempted,
            failed=failed,
            server_errors=server_errors,
            client_errors=[],
            behaviour={
                "digest": service.state_digest(),
                "events": service.events_processed,
                "cycles_done": service.cycles_done,
            },
            worker_rss_kb=worker_rss_kb,
        )
    finally:
        service.close()


def _peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def kernel_bulk_inproc(seed: int, tracer: Optional[Tracer] = None) -> Lap:
    return kernel_lap(seed, tracer, shards=1, processes=0)


def kernel_bulk_2proc(seed: int, tracer: Optional[Tracer] = None) -> Lap:
    return kernel_lap(seed, tracer, shards=2, processes=2)


def halo_bytes_per_cycle(shards: int) -> int:
    """Bytes crossing the barrier per cycle, computed from border sizes:
    each shard receives its halo and returns its border, four float64
    state rows per server."""
    graph = stratum_hierarchy(KERNEL_SERVERS)
    total = 0
    for block in partition_names(sorted(graph.nodes), shards):
        local = set(block)
        halo = {nbr for name in block for nbr in graph.neighbors(name)} - local
        border = {name for name in block if any(n not in local for n in graph.neighbors(name))}
        total += 4 * 8 * (len(halo) + len(border))
    return total


# --------------------------------------------------------------- live plane


class _ClosedLoopClient(asyncio.DatagramProtocol):
    """One caller: sends the next query only when the reply has decoded.

    The server it queries also polls it (it is a topology neighbour);
    like the simulated ``TimeClient`` it ignores everything but the
    reply to its outstanding query.
    """

    def __init__(
        self, name: str, server: str, address, epoch: float, tracer: Optional[Tracer]
    ) -> None:
        self.name, self.server, self.address = name, server, address
        self.epoch = epoch  # the cluster's shared true-time axis origin
        if tracer is not None:  # the generator's own cost is a layer row too
            self.datagram_received = tracer.wrap("bench:generator", self.datagram_received)
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.active = False
        self.request_id = 0
        self.sent_at = 0.0
        self.timer: Optional[asyncio.TimerHandle] = None
        self.latencies: List[float] = []
        self.errors: List[float] = []
        self.failed = 0

    def connection_made(self, transport) -> None:
        self.transport = transport

    def send_next(self) -> None:
        self.request_id += 1
        data = wire.encode_message(
            TimeRequest(
                request_id=self.request_id,
                origin=self.name,
                destination=self.server,
                kind=RequestKind.CLIENT,
            )
        )
        self.sent_at = time.perf_counter()
        self.transport.sendto(data, self.address)
        self.timer = asyncio.get_running_loop().call_later(
            LIVE_TIMEOUT_S, self._timed_out, self.request_id
        )

    def _timed_out(self, request_id: int) -> None:
        if self.active and request_id == self.request_id:
            self.failed += 1
            self.send_next()

    def datagram_received(self, data: bytes, addr) -> None:
        try:
            message = wire.decode_message(data)
        except ValueError:
            self.failed += 1
            return
        if not isinstance(message, TimeReply) or message.request_id != self.request_id:
            return
        latency = time.perf_counter() - self.sent_at
        self.timer.cancel()
        if not self.active:
            return
        # <C, E> was read at most `latency` ago, so true time now lies in
        # [C - E, C + E + latency] iff the server's interval was correct.
        now = time.monotonic() - self.epoch
        low = message.clock_value - message.error
        if low <= now <= message.clock_value + message.error + latency:
            self.latencies.append(latency)
            self.errors.append(message.error)
        else:
            self.failed += 1
        self.send_next()


def live_loopback_closed(seed: int, tracer: Optional[Tracer] = None) -> Lap:
    gc.collect()
    return asyncio.run(_live_lap(seed, tracer))


async def _live_lap(seed: int, tracer: Optional[Tracer]) -> Lap:
    wall, cpu = time.perf_counter, time.process_time
    rng = np.random.default_rng([seed, 3])
    started = wall()
    servers = [f"S{k + 1}" for k in range(LIVE_NODES)]
    callers = [f"C{k + 1}" for k in range(LIVE_CLIENTS)]
    ports = _free_ports(LIVE_NODES + LIVE_CLIENTS)
    peers = {name: ["127.0.0.1", port] for name, port in zip(servers + callers, ports)}
    edges = [[a, b] for i, a in enumerate(servers) for b in servers[i + 1:]]
    edges += [[caller, servers[k % LIVE_NODES]] for k, caller in enumerate(callers)]
    epoch = time.monotonic()
    nodes = [
        build_node(
            dict(
                name=name,
                host="127.0.0.1",
                port=peers[name][1],
                peers=peers,
                edges=edges,
                epoch=epoch,
                kind="plain",
                tau=LIVE_TAU,
                delta=1e-4,
                skew=float(rng.uniform(-5e-5, 5e-5)),
                initial_offset=float(rng.uniform(0.0, 0.002)),
                initial_error=0.05,
                one_way_bound=0.05,
                poll_phase=0.1 + 0.05 * index,
                probe_period=LIVE_PROBE_PERIOD,
                seed=seed + index,
            )
        )
        for index, name in enumerate(servers)
    ]
    loop = asyncio.get_running_loop()
    runners = []
    clients: List[_ClosedLoopClient] = []
    try:
        for node in nodes:
            await node.transport.start((node.config["host"], node.config["port"]))
            node.server.start()
            node.probe.start()
            runners.append(asyncio.ensure_future(node.engine.run()))
        for k, caller in enumerate(callers):
            server = servers[k % LIVE_NODES]
            _transport, client = await loop.create_datagram_endpoint(
                lambda c=caller, s=server: _ClosedLoopClient(
                    c, s, tuple(peers[s]), epoch, tracer
                ),
                local_addr=("127.0.0.1", peers[caller][1]),
            )
            clients.append(client)
        setup_s = wall() - started
        for client, phase in zip(clients, rng.uniform(0.0, 0.01, LIVE_CLIENTS)):
            client.active = True
            loop.call_later(float(phase), client.send_next)
        await asyncio.sleep(LIVE_WARM_S)
        for client in clients:
            client.latencies.clear()
            client.errors.clear()
            client.failed = 0
        before = _live_counters(nodes)
        if tracer is not None:
            tracer.enabled = True
        w0, c0 = wall(), cpu()
        marks = [(w0, _dispatched(nodes), [0] * LIVE_CLIENTS)]
        for _ in range(LIVE_STEPS):
            await asyncio.sleep(LIVE_STEP_S)
            marks.append(
                (wall(), _dispatched(nodes), [len(client.latencies) for client in clients])
            )
        c1, w1 = cpu(), wall()
        if tracer is not None:
            tracer.enabled = False
        for client in clients:
            client.active = False
        after = _live_counters(nodes)
        server_errors = [node.server.report()[1] for node in nodes]
    finally:
        for node in nodes:
            node.engine.stop()
        for runner in runners:
            try:
                await asyncio.wait_for(runner, timeout=2.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                runner.cancel()
        for node in nodes:
            node.probe.stop()
            node.server.stop()
            node.transport.close()
        for client in clients:
            if client.timer is not None:
                client.timer.cancel()
            client.transport.close()
    delta = {key: after[key] - before[key] for key in after}
    latencies = [
        [
            value
            for client, low, high in zip(clients, earlier[2], later[2])
            for value in client.latencies[low:high]
        ]
        for earlier, later in zip(marks, marks[1:])
    ]
    answered = sum(len(step) for step in latencies)
    timeouts = sum(client.failed for client in clients)  # or undecodable/incorrect
    violations = delta["mm1_violations"] + delta["monotonicity_violations"]
    return Lap(
        setup_s=setup_s,
        steps=[later[0] - earlier[0] for earlier, later in zip(marks, marks[1:])],
        step_events=[int(later[1] - earlier[1]) for earlier, later in zip(marks, marks[1:])],
        step_queries=[len(step) for step in latencies],
        latencies=latencies,
        wall_s=w1 - w0,
        cpu_s=c1 - c0,
        attempted=answered + timeouts + int(delta["probes"]),
        failed=timeouts + int(violations + delta["decode_errors"]),
        server_errors=server_errors,
        client_errors=[value for client in clients for value in client.errors],
        stats={
            "runtime.transport.sent": delta["sent"],
            "runtime.transport.delivered": delta["delivered"],
            "runtime.transport.dropped": delta["dropped"],
            "runtime.transport.decode_errors": delta["decode_errors"],
            "runtime.engine.events": delta["engine_events"],
            "runtime.engine.poll_rounds": delta["rounds"],
            "service.server.rounds": delta["rounds"],
            "service.server.requests_answered": delta["requests_answered"],
        },
    )


def _dispatched(nodes) -> int:
    """What the servers' loop dispatched so far: timer events plus datagrams."""
    return sum(
        node.engine.events_processed + node.transport.stats.delivered for node in nodes
    )


def _live_counters(nodes) -> Dict[str, float]:
    totals: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0) + value

    for node in nodes:
        add("engine_events", node.engine.events_processed)
        add("sent", node.transport.stats.sent)
        add("delivered", node.transport.stats.delivered)
        add("dropped", node.transport.stats.dropped)
        add("decode_errors", node.transport.decode_errors)
        add("rounds", node.server.stats.rounds)
        add("requests_answered", node.server.stats.requests_answered)
        add("probes", node.probe.probes)
        add("mm1_violations", node.probe.mm1_violations)
        add("monotonicity_violations", node.probe.monotonicity_violations)
    return totals


#: workload name (as in ``catalog.WORKLOADS``) -> its lap function
LAPS: Dict[str, Callable[[int, Optional[Tracer]], Lap]] = {
    lap.__name__: lap
    for lap in (
        sync_mesh_plain,
        sync_mesh_auth,
        service_clients_im,
        kernel_bulk_inproc,
        kernel_bulk_2proc,
        live_loopback_closed,
    )
}

"""One live time-server process.

``python -m repro.runtime.node <config.json>`` boots a single server of
the cluster: a :class:`~repro.runtime.engine.WallClockEngine` on the
cluster's shared monotonic epoch, a
:class:`~repro.runtime.transport.UdpTransport` bound to the node's port,
and the *unmodified* policy stack — a
:class:`~repro.service.server.TimeServer`, plain or carrying the
:class:`~repro.service.hardening.HardeningStage` and
:class:`~repro.security.server.SecurityStage`, its stage list drawn from
the simulator's own table (:func:`~repro.service.builder.stages_for`) —
polling neighbours with rule MM-2 over real datagrams.

Two live-plane additions:

* **Slew-honest MM-1 accounting** — hardened/authenticated nodes read
  time through a :class:`~repro.clocks.slewing.SlewingClock`, so a reset
  is *applied* gradually.  Until the slew drains, the displayed clock
  differs from the policy's target by up to ``slew_remaining``; the
  :class:`~repro.service.server.SlewRail` stage charges that pending
  correction to ``ε_i`` at reset time (the same rail the holdover
  subsystem rides), keeping the advertised interval a true bound
  *during* the slew.
* **Live invariant probes** — a periodic engine task checks, against the
  shared true-time axis, that rule MM-1 holds (``|C_i(t) − t| ≤ E_i(t)``
  within a read-skew slack) and that the displayed clock never runs
  backwards.  Violation counters are exported over the control plane and
  scraped by the gauntlet.

The control plane is a tiny JSON-over-UDP surface (``ping`` / ``stats``
/ ``metrics`` / ``drain`` / ``halt``) the supervisor uses for liveness
watchdogs, telemetry scraping, and graceful shutdown; it never crosses
the chaos proxy.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import networkx as nx

from ..clocks.drift import DriftingClock
from ..clocks.slewing import SlewingClock
from ..core.mm import MMPolicy
from ..security.auth import Keyring
from ..security.server import SecurityConfig
from ..service.builder import ServerSpec, stages_for
from ..service.hardening import HardeningConfig
from ..service.server import TimeServer
from ..simulation.rng import RngRegistry
from ..telemetry.exporters import to_prometheus_text
from ..telemetry.instruments import ServiceTelemetry
from .engine import WallClockEngine
from .transport import UdpTransport

__all__ = ["LiveNode", "build_node", "load_config", "run_node"]

#: Allowance for the non-atomic read of (clock, axis) in a probe and for
#: float noise — far below any injected fault (tamper offsets are ~0.3 s).
PROBE_SLACK = 1e-3


class InvariantProbe:
    """Periodic live oracle: MM-1 validity and display monotonicity."""

    def __init__(self, engine: WallClockEngine, server: TimeServer, period: float) -> None:
        self.engine = engine
        self.server = server
        self.period = period
        self.probes = 0
        self.mm1_violations = 0
        self.monotonicity_violations = 0
        self.max_true_error = 0.0
        self.max_excess = 0.0  # worst |C−t| − E seen (negative when valid)
        self._last_value: Optional[float] = None
        self._task = None

    def start(self) -> None:
        self._task = self.engine.schedule_periodic(
            self.period, self._probe, label=f"probe/{self.server.name}"
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def _probe(self) -> None:
        value, error = self.server.report()
        now = self.engine.now
        self.probes += 1
        offset = abs(value - now)
        if offset > self.max_true_error:
            self.max_true_error = offset
        excess = offset - error
        if excess > self.max_excess:
            self.max_excess = excess
        if excess > PROBE_SLACK:
            self.mm1_violations += 1
        if self._last_value is not None and value < self._last_value:
            self.monotonicity_violations += 1
        self._last_value = value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "probes": self.probes,
            "mm1_violations": self.mm1_violations,
            "monotonicity_violations": self.monotonicity_violations,
            "max_true_error": self.max_true_error,
            "max_excess": self.max_excess,
        }


def load_config(path) -> Dict[str, Any]:
    """Read and minimally validate a node config file."""
    config = json.loads(Path(path).read_text())
    for field in ("name", "host", "port", "peers", "edges"):
        if field not in config:
            raise ValueError(f"node config missing {field!r}")
    return config


def _build_graph(config: Dict[str, Any]) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(config["peers"].keys())
    for name in config.get("extra_nodes", []):
        graph.add_node(name)
    for a, b in config["edges"]:
        graph.add_edge(a, b)
    return graph


class LiveNode:
    """The assembled process: engine + transport + server + probes."""

    def __init__(self, config: Dict[str, Any]) -> None:
        self.config = config
        self.name: str = config["name"]
        self.kind: str = config.get("kind", "hardened")
        self.engine = WallClockEngine(epoch=config.get("epoch"))
        self.telemetry = ServiceTelemetry(spans=False, oracle=False)
        graph = _build_graph(config)
        addresses = {
            name: (host, int(port))
            for name, (host, port) in config["peers"].items()
        }
        via = config.get("via")
        self.transport = UdpTransport(
            self.engine,
            graph,
            addresses=addresses,
            one_way_bound=float(config.get("one_way_bound", 0.25)),
            via=(via[0], int(via[1])) if via else None,
            on_control=self._on_control,
        )
        self.server = self._build_server()
        self.transport.register(self.server)
        self.probe = InvariantProbe(
            self.engine, self.server, float(config.get("probe_period", 0.05))
        )
        self._control_addr: Optional[Tuple[str, int]] = None
        ctl = config.get("control")
        if ctl:
            self._control_addr = (ctl[0], int(ctl[1]))

    # -------------------------------------------------------------- assembly

    def _build_clock(self):
        skew = float(self.config.get("skew", 0.0))
        offset = float(self.config.get("initial_offset", 0.0))
        inner = DriftingClock(skew, epoch=0.0, initial=offset)
        if self.kind == "plain":
            return inner
        return SlewingClock(
            inner,
            slew_rate=float(self.config.get("slew_rate", 0.05)),
            panic_threshold=float(self.config.get("panic_threshold", 0.5)),
            sanity_bound=float(self.config.get("sanity_bound", 1000.0)),
        )

    def _build_server(self) -> TimeServer:
        cfg = self.config
        if self.kind not in ("plain", "hardened", "authenticated"):
            raise ValueError(f"unknown node kind {self.kind!r}")
        clock = self._build_clock()
        security = None
        if self.kind == "authenticated":
            keyring = Keyring.from_secret(cfg.get("secret", "repro-live"))
            security = SecurityConfig(keyring=keyring)
        stages = stages_for(
            ServerSpec(self.name),
            clock,
            True,
            RngRegistry(seed=int(cfg.get("seed", 0))),
            hardening=None if self.kind == "plain" else HardeningConfig(),
            security=security,
        )
        return TimeServer(
            self.engine,
            self.name,
            clock,
            float(cfg.get("delta", 1e-4)),
            self.transport,
            MMPolicy(),
            float(cfg.get("tau", 0.75)),
            initial_error=float(cfg.get("initial_error", 0.05)),
            first_poll_at=self.engine.now + float(cfg.get("poll_phase", 0.25)),
            telemetry=self.telemetry.server(self.name),
            stages=stages,
        )

    # --------------------------------------------------------- control plane

    def _on_control(self, payload: Dict[str, Any], addr) -> None:
        op = payload.get("op")
        token = payload.get("token")
        if op == "ping":
            self.transport.send_control(
                {"op": "pong", "token": token, "name": self.name}, addr
            )
        elif op == "stats":
            snap = self.stats_snapshot()
            snap.update({"op": "stats", "token": token})
            self.transport.send_control(snap, addr)
        elif op == "metrics":
            text = to_prometheus_text(self.telemetry.registry)
            self.transport.send_control(
                {"op": "metrics", "token": token, "name": self.name,
                 "text": text[:60000]},
                addr,
            )
        elif op == "drain":
            self.probe.stop()
            self.server.stop()
            self.transport.send_control(
                {"op": "drained", "token": token, "name": self.name}, addr
            )
            # Let the ack datagram flush before the loop winds down.
            self.engine.schedule_after(0.05, self.engine.stop, label="drain")
        elif op == "halt":
            self.engine.stop()

    def stats_snapshot(self) -> Dict[str, Any]:
        """Everything the gauntlet scrapes, JSON-safe."""
        value, error = self.server.report()
        stats = self.server.stats
        snap: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "now": self.engine.now,
            "clock_value": value,
            "error_bound": error,
            "true_error": self.server.true_error(),
            "is_correct": self.server.is_correct(),
            "rounds": stats.rounds,
            "resets": stats.resets,
            "rejects": stats.rejects,
            "replies_handled": stats.replies_handled,
            "invalid_replies": stats.invalid_replies,
            "requests_answered": stats.requests_answered,
            "events_processed": self.engine.events_processed,
            "net": {
                "sent": self.transport.stats.sent,
                "delivered": self.transport.stats.delivered,
                "dropped": self.transport.stats.dropped,
                "decode_errors": self.transport.decode_errors,
            },
            "rtt": self.transport.rtt.summary(),
            "rtt_samples": list(self.transport.rtt.samples[:256]),
            "invariants": self.probe.snapshot(),
        }
        security = getattr(self.server, "security_stats", None)
        if security is not None:
            snap["security"] = {
                "auth_failures": security.auth_failures,
                "replay_drops": security.replay_drops,
                "delay_attack_detections": security.delay_attack_detections,
                "delay_widens": security.delay_widens,
            }
        slew = self.server.clock
        if isinstance(slew, SlewingClock):
            snap["slew"] = {
                "slewed_out": slew.slewed_out,
                "steps": slew.steps,
                "insane_resets": slew.insane_resets,
            }
        return snap

    # -------------------------------------------------------------- lifecycle

    async def run(self) -> None:
        host, port = self.config["host"], int(self.config["port"])
        await self.transport.start((host, port))
        self.server.start()
        self.probe.start()
        if self._control_addr is not None:
            self.transport.send_control(
                {"op": "hello", "name": self.name, "pid": 0}, self._control_addr
            )
        try:
            await self.engine.run()
        finally:
            self.probe.stop()
            self.server.stop()
            self.transport.close()


async def run_node(config: Dict[str, Any]) -> None:
    node = LiveNode(config)
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, node.engine.stop)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    await node.run()


def build_node(config: Dict[str, Any]) -> LiveNode:
    """Assemble a node without running it (tests drive these in-process)."""
    return LiveNode(config)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.runtime.node <config.json>", file=sys.stderr)
        return 2
    config = load_config(argv[0])
    asyncio.run(run_node(config))
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(main())

"""The live gauntlet: real processes, real packets, injected faults.

Five time-server processes run on loopback UDP under a
:class:`~repro.runtime.supervisor.ClusterSupervisor`, every data packet
routed through a :class:`~repro.runtime.proxy.ChaosProxy` injecting 10%
steady loss, a replay window and a delay attack, a delay spike, and an
on-path tamper window (:func:`fault_events`, read by the same
interpreter as the simulator's), while one node is crashed with
``SIGKILL`` mid-run and restarted by the supervisor's backoff machinery.
Two arms run the identical scenario:

* **plain** — the paper's trusting :class:`~repro.service.server.
  TimeServer`.  Rule MM-2's consistency check makes a steady-state
  server surprisingly tamper-resistant — a forged value far outside its
  few-millisecond interval is "inconsistent with ``S_i``" and ignored —
  so the attack targets the one moment the paper itself flags as
  delicate: a **rejoining** server (Section 3) whose interval is wide
  open.  The tamper window brackets the crash victim's restart and
  shifts the anchors' replies by −60 ms: the forgery is consistent with
  the rejoiner's ±80 ms interval, gets adopted with a tiny inherited
  error (the clock visibly steps *backwards*), and from then on honest
  replies are the ones rejected as inconsistent — the node is stuck
  wrong, and the live invariant probes count every 50 ms of it.
* **hardened** — a node of kind ``authenticated``: hardening +
  authentication (:class:`~repro.security.server.SecurityStage`) +
  slewing rails.  Tampered and re-labelled (delay-attack) replies fail
  their MAC, replayed traffic meets the anti-replay window (both counts
  are in the report), delay physics guard the spike, pending slew is
  charged to ``ε``, and every adopted interval stays MM-1-valid: the acceptance
  bar is **zero** MM-1 and **zero** monotonicity violations over the
  whole run.

The cluster needs continuous adoption pressure for the attack to bite:
the anchor ``S1`` claims a 10× tighter drift bound than the loose
servers, so their reported errors outgrow its own and rule MM-2 keeps
re-adopting from it every few seconds — exactly the paper's "good
clocks discipline bad ones" dynamic, here measured over real sockets
with live ξ (max observed round trip) in the report.
"""

from __future__ import annotations

import asyncio
import os
import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..faults.schedule import DelayAttack, DelaySpike, FaultEvent, MessageReplay, MessageTamper
from ..runtime.proxy import ChaosProxy
from ..runtime.supervisor import ClusterSupervisor, NodeSpec, RestartPolicy
from . import harness

__all__ = ["EXPERIMENTS", "fault_events", "main", "run"]

TAU = 0.75
#: Measurement window per arm, seconds of wall time.
DURATION = 12.0
ONE_WAY_BOUND = 0.25  # declared; ξ = 0.5 s
LOSS = 0.10
#: Negative and larger than the probe spacing: adoption is a visible
#: backward step, yet small enough to sit inside a rejoining server's
#: wide-open ±``initial_error`` interval (a steady-state interval is a
#: few ms wide and rule MM-2 would discard anything outside it).
TAMPER_OFFSET = -0.06
SCRAPE_PERIOD = 0.5
CRASH_VICTIM = "S4"
#: Replayed copies land this long after the original — longer than τ,
#: so each copy arrives in a later poll round.
REPLAY_HOLD = 1.0
#: The delay attack: S3's polls of the anchor S1 are answered from a
#: held-back reply, implausibly fast.
DELAY_VICTIM, DELAY_UPSTREAM = "S3", "S1"

#: (name, skew, claimed delta, initial offset, initial error).  The
#: anchor S1 claims δ ten times tighter than the loose servers, so the
#: loose errors outgrow it and adoptions recur throughout the run.
NODE_PARAMS: List[Tuple[str, float, float, float, float]] = [
    ("S1", 2e-5, 5e-5, 0.001, 0.003),
    ("S2", -2e-5, 5e-5, -0.002, 0.006),
    ("S3", 2e-4, 5e-4, 0.006, 0.08),
    ("S4", -2e-4, 5e-4, 0.008, 0.08),
    ("S5", 1e-4, 5e-4, -0.005, 0.08),
]

ARM_KINDS = {"plain": "plain", "hardened": "authenticated"}


def _free_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    socks = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in range(count)]
    try:
        for sock in socks:
            sock.bind((host, 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def fault_events(start: float, duration: float) -> List[FaultEvent]:
    """The proxy's fault plan on the cluster's axis, for a measurement
    window opening at ``start``.

    A replay window and a delay attack come first, then the delay spike;
    the tamper window brackets the crash victim's backoff + respawn +
    first poll round, and both anchors are tampered so the rejoiner's
    first-arriving reply is a forgery even under the steady 10% loss.
    """
    return [
        MessageReplay(at=start + 0.05 * duration, a="S1", hold=REPLAY_HOLD,
                      probability=1.0, duration=0.15 * duration),
        DelayAttack(at=start + 0.10 * duration, a=DELAY_VICTIM, b=DELAY_UPSTREAM,
                    duration=0.20 * duration),
        DelaySpike(at=start + 0.20 * duration, scale=1.0,
                   extra=0.15, duration=0.15 * duration),
        MessageTamper(at=start + 0.35 * duration, a="S1", offset=TAMPER_OFFSET,
                      probability=1.0, duration=0.35 * duration),
        MessageTamper(at=start + 0.35 * duration, a="S2", offset=TAMPER_OFFSET,
                      probability=1.0, duration=0.35 * duration),
    ]


def proxy_report(proxy: ChaosProxy) -> Dict[str, int]:
    """What the relay did (``ProxyStats``) plus what the message-level
    adversary did, under the interpreter's shared counter names."""
    return {**vars(proxy.stats), **vars(proxy.message_faults.stats)}


def _accumulate(series: List[Dict[str, Any]]) -> Dict[str, float]:
    """Total invariant counters across process incarnations.

    A crash-restart resets a node's counters; an incarnation boundary
    shows as the probe count dropping.  Summing the per-incarnation
    maxima gives the true run total.
    """
    totals = {"probes": 0.0, "mm1_violations": 0.0, "monotonicity_violations": 0.0,
              "max_true_error": 0.0, "max_excess": float("-inf")}
    last_probes = None
    acc = {"probes": 0.0, "mm1_violations": 0.0, "monotonicity_violations": 0.0}
    for snap in series:
        inv = snap["invariants"]
        if last_probes is not None and inv["probes"] < last_probes:
            for key in acc:
                totals[key] += acc[key]
            acc = {key: 0.0 for key in acc}
        for key in acc:
            acc[key] = inv[key]
        last_probes = inv["probes"]
        totals["max_true_error"] = max(totals["max_true_error"], inv["max_true_error"])
        totals["max_excess"] = max(totals["max_excess"], inv["max_excess"])
    for key in acc:
        totals[key] += acc[key]
    if totals["max_excess"] == float("-inf"):
        totals["max_excess"] = 0.0
    return totals


async def _run_arm(
    arm: str,
    *,
    seed: int,
    duration: float,
    loss: float = LOSS,
    with_faults: bool = True,
    telemetry_dir: Optional[str] = None,
) -> Dict[str, Any]:
    kind = ARM_KINDS[arm]
    epoch = time.monotonic()
    names = [p[0] for p in NODE_PARAMS]
    ports = _free_ports(len(names))
    peers = {name: ["127.0.0.1", port] for name, port in zip(names, ports)}
    edges = [[a, b] for i, a in enumerate(names) for b in names[i + 1 :]]

    proxy = ChaosProxy(
        addresses={n: (h, p) for n, (h, p) in peers.items()},
        loss=loss,
        seed=seed,
        epoch=epoch,
        nominal_one_way=0.001,
    )
    proxy_addr = await proxy.start()

    specs = []
    for index, (name, skew, delta, offset, eps) in enumerate(NODE_PARAMS):
        config = dict(
            name=name,
            host="127.0.0.1",
            port=peers[name][1],
            peers=peers,
            edges=edges,
            epoch=epoch,
            via=list(proxy_addr),
            kind=kind,
            tau=TAU,
            delta=delta,
            skew=skew,
            initial_offset=offset,
            initial_error=eps,
            one_way_bound=ONE_WAY_BOUND,
            poll_phase=0.3 + 0.15 * index,
            probe_period=0.05,
            seed=seed * 100 + index,
            secret="repro-live",
        )
        specs.append(NodeSpec(name=name, config=config))

    supervisor = ClusterSupervisor(
        specs, restart=RestartPolicy(base=0.2, factor=2.0, max_delay=2.0)
    )
    series: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    try:
        await supervisor.start()
        booted = await supervisor.wait_ready(timeout=45.0)
        start = time.monotonic() - epoch  # measurement-window origin, axis time
        if with_faults:
            proxy.events = fault_events(start, duration)
        crashed = False
        crash_elapsed = 0.30 * duration
        while time.monotonic() - epoch - start < duration:
            await asyncio.sleep(SCRAPE_PERIOD)
            elapsed = time.monotonic() - epoch - start
            if with_faults and not crashed and elapsed >= crash_elapsed:
                supervisor.kill(CRASH_VICTIM)
                crashed = True
            for name, snap in (await supervisor.scrape(timeout=0.5)).items():
                if snap is not None:
                    series[name].append(snap)
        final = await supervisor.scrape(timeout=2.0)
        for name, snap in final.items():
            if snap is not None:
                series[name].append(snap)
        if telemetry_dir:
            arm_dir = os.path.join(telemetry_dir, arm)
            os.makedirs(arm_dir, exist_ok=True)
            for name, text in (await supervisor.metrics(timeout=2.0)).items():
                if text:
                    with open(os.path.join(arm_dir, f"{name}.prom"), "w") as fh:
                        fh.write(text)
        drained = await supervisor.drain(grace=3.0)
    finally:
        supervisor.close()
        proxy.close()

    nodes: Dict[str, Any] = {}
    mm1_total = 0
    mono_total = 0
    security: Dict[str, int] = {}
    xi_live = 0.0
    rtt_count = 0
    for name in names:
        snaps = series[name]
        inv = _accumulate(snaps)
        last = snaps[-1] if snaps else None
        rtt = (last or {}).get("rtt", {"count": 0, "mean": None, "max": None, "p95": None})
        if rtt.get("max"):
            xi_live = max(xi_live, rtt["max"])
        rtt_count += rtt.get("count") or 0
        nodes[name] = {
            "invariants": inv,
            "rounds": (last or {}).get("rounds", 0),
            "resets": (last or {}).get("resets", 0),
            "rejects": (last or {}).get("rejects", 0),
            "rtt": rtt,
            "rtt_samples": (last or {}).get("rtt_samples", []),
            "security": (last or {}).get("security"),
            "restarts": supervisor.specs[name].restarts,
            "scrapes": len(snaps),
        }
        mm1_total += int(inv["mm1_violations"])
        mono_total += int(inv["monotonicity_violations"])
        for key, count in (nodes[name]["security"] or {}).items():
            security[key] = security.get(key, 0) + count

    return {
        "arm": arm,
        "kind": kind,
        "seed": seed,
        "duration": duration,
        "booted": booted,
        "loss": loss,
        "nodes": nodes,
        "mm1_violations": mm1_total,
        "monotonicity_violations": mono_total,
        "xi_live": xi_live,
        "xi_declared": 2.0 * ONE_WAY_BOUND,
        "rtt_count": rtt_count,
        "crash_restarts": supervisor.crash_restarts,
        "drained": drained,
        "proxy": proxy_report(proxy),
        # Summed over nodes' last scrapes (a restart resets its node's).
        "security": security,
    }


def run(
    *,
    seed: int = 0,
    duration: float = DURATION,
    loss: float = LOSS,
    with_faults: bool = True,
    arms: Sequence[str] = ("plain", "hardened"),
    telemetry_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the scenario once per arm (sequentially — one cluster at a
    time keeps loopback RTTs honest) and assemble the report."""
    results = {}
    for arm in arms:
        results[arm] = asyncio.run(
            _run_arm(
                arm,
                seed=seed,
                duration=duration,
                loss=loss,
                with_faults=with_faults,
                telemetry_dir=telemetry_dir,
            )
        )
    hardened = results.get("hardened")
    ok = True
    if hardened is not None:
        ok = (
            hardened["booted"]
            and hardened["mm1_violations"] == 0
            and hardened["monotonicity_violations"] == 0
            and hardened["rtt_count"] > 0
        )
    return {
        "experiment": "live_gauntlet",
        "seed": seed,
        "duration": duration,
        "arms": results,
        "plain_degraded": (
            results["plain"]["mm1_violations"] > 0 if "plain" in results else None
        ),
        "ok": ok,
    }


def main(
    *,
    seeds: Sequence[int],
    duration: float,
    json_path: Optional[str] = None,
    telemetry_dir: Optional[str] = None,
) -> bool:
    """Run the live gauntlet for each seed; print and persist the report."""
    reports = []
    all_ok = True
    for seed in seeds:
        report = run(seed=seed, duration=duration, telemetry_dir=telemetry_dir)
        reports.append(report)
        all_ok = all_ok and report["ok"]
        for arm in ("plain", "hardened"):
            if arm not in report["arms"]:
                continue
            res = report["arms"][arm]
            print(
                f"seed {seed} {arm:>9}: mm1={res['mm1_violations']:4d} "
                f"mono={res['monotonicity_violations']:4d} "
                f"xi_live={res['xi_live']:.4f}s (declared {res['xi_declared']:.2f}s) "
                f"rtt_n={res['rtt_count']} restarts={res['crash_restarts']}"
            )
            attacks = res["proxy"]
            print(
                f"{'':>16} adversary: tampered={attacks['messages_tampered']} "
                f"replayed={attacks['messages_replayed']} "
                f"swallowed={attacks['replies_delayed']}; rejected: "
                f"mac={res['security'].get('auth_failures', 0)} "
                f"replay={res['security'].get('replay_drops', 0)}"
            )
    print(f"live gauntlet: {'PASS' if all_ok else 'FAIL'}")
    harness.write_report(
        json_path,
        reports[0]
        if len(reports) == 1
        else {"experiment": "live_gauntlet", "reports": reports, "ok": all_ok},
    )
    return all_ok


EXPERIMENTS = (
    harness.Experiment(
        "live-gauntlet",
        "real-socket runtime plane: a supervised 5-process loopback "
        "UDP cluster behind a fault-injecting proxy (10%% loss, replay, "
        "delay attack, delay spike, on-path tamper, SIGKILL crash/restart) — plain vs "
        "hardened+authenticated arms under live MM-1 probes",
        main,
        {
            **harness.seeds_flag(0),
            "--duration": dict(type=float, default=DURATION, requires=harness.POSITIVE,
                               help="measurement window per arm, seconds of wall time"),
            **harness.JSON,
            **harness.TELEMETRY_OUT,
        },
    ),
)

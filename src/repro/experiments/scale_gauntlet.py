"""Scale gauntlet: Figure-1-class MM-vs-IM runs at 1k–50k servers.

The kernel's reason to exist: run the paper's synchronization dynamics on a
planet-scale stratum hierarchy (:func:`repro.network.topology.
stratum_hierarchy`) and check that the paper's *laws* survive the scale-up:

* **Lemma 1** — between resets an error bound grows at the drift ceiling
  ``δ``; no stratum's mean error may grow faster than ``δ_stratum · τ`` per
  cycle once the service reaches steady state.
* **Theorem 8** — intersecting all neighbour replies (rule IM-2) yields an
  expected error no worse than adopting the best single master (rule MM-2);
  the gauntlet compares matched MM and IM arms per size and seed.
* **Consistency** — every pair of neighbouring interval estimates should
  mutually intersect (the paper's Section 4 consistency relation); the
  census runs :func:`repro.kernel.marzullo_vec.intersect_tolerating_vec`
  over every server's stacked neighbour intervals at once, which at 10k+
  servers is itself a kernel workload (and exercises the ragged-row path,
  since strata have different degrees).

Each run reports throughput (events/sec) so the scale trajectory is visible
next to the `BENCH_engine.json` arms.  Runs use the bulk kernel; shard and
process counts are parameters so the nightly soak exercises the exchange
path too.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.im import IMPolicy
from ..core.mm import MMPolicy
from ..kernel import build_kernel_service, intersect_tolerating_vec
from ..network.delay import UniformDelay
from ..network.topology import stratum_hierarchy, stratum_of
from ..service.builder import ServerSpec
from . import harness

__all__ = [
    "EXPERIMENTS",
    "StratumReport",
    "ScaleRunOutcome",
    "build_specs",
    "run_scale",
    "main",
]

BASE_DELTA = 1e-5  # stratum-1 drift ceiling; deeper strata drift worse
BASE_ERROR = 1e-3  # stratum-1 initial error bound (seconds)
ONE_WAY = 0.01  # uniform one-way delay bound (xi = 0.02 s)
DEFAULT_TAU = 60.0
DEFAULT_CYCLES = 8


@dataclass(frozen=True)
class StratumReport:
    """Per-stratum error statistics for one run."""

    stratum: int
    servers: int
    mean_error: float
    max_error: float
    growth_per_tau: float  # measured steady-state growth, s per cycle
    lemma1_ceiling: float  # delta_stratum * tau — the unsynchronized rate
    ok: bool  # growth_per_tau <= lemma1_ceiling (+ float slack)


@dataclass(frozen=True)
class ScaleRunOutcome:
    """One (size, policy, seed) cell of the gauntlet."""

    size: int
    policy: str
    seed: int
    shards: int
    processes: int
    tau: float
    cycles_done: int
    events: int
    wall_seconds: float
    events_per_sec: float
    mean_error: float
    max_error: float
    census_fraction: float  # servers whose neighbour intervals all intersect
    state_digest: int
    strata: List[StratumReport] = field(default_factory=list)

    @property
    def growth_ok(self) -> bool:
        return all(s.ok for s in self.strata)


def build_specs(graph) -> List[ServerSpec]:
    """Per-stratum specs: deeper strata have worse oscillators and start
    with larger inherited error, the Section 5 stratum picture."""
    specs = []
    for idx, name in enumerate(sorted(graph.nodes)):
        stratum = stratum_of(name)
        delta = BASE_DELTA * stratum
        skew = ((-1) ** idx) * 0.8 * delta * ((idx % 11) + 1) / 11.0
        specs.append(
            ServerSpec(
                name=name,
                delta=delta,
                skew=skew,
                initial_error=BASE_ERROR * stratum,
            )
        )
    return specs


def _census(graph, snapshot) -> float:
    """Fraction of servers whose neighbour intervals mutually intersect.

    Stacks each server's neighbour intervals ``<C_j − E_j, C_j + E_j>`` as
    one ragged batch and runs the zero-fault tolerant intersection over all
    rows at once.
    """
    names = sorted(graph.nodes)
    degrees = {name: len(list(graph.neighbors(name))) for name in names}
    max_deg = max(degrees.values())
    lo = np.zeros((len(names), max_deg))
    hi = np.zeros((len(names), max_deg))
    valid = np.zeros((len(names), max_deg), dtype=bool)
    for i, name in enumerate(names):
        for q, nbr in enumerate(sorted(graph.neighbors(name))):
            value = snapshot.values[nbr]
            error = snapshot.errors[nbr]
            lo[i, q] = value - error
            hi[i, q] = value + error
            valid[i, q] = True
    batch = intersect_tolerating_vec(lo, hi, faults=0, valid=valid)
    return float(batch.ok.mean())


def run_scale(
    size: int,
    policy_name: str,
    seed: int,
    *,
    shards: int = 4,
    processes: int = 0,
    tau: float = DEFAULT_TAU,
    cycles: int = DEFAULT_CYCLES,
) -> ScaleRunOutcome:
    """Run one cell: a ``size``-server stratum hierarchy under MM or IM."""
    policy = MMPolicy() if policy_name.upper() == "MM" else IMPolicy()
    graph = stratum_hierarchy(size)
    specs = build_specs(graph)
    horizon = cycles * tau
    mid = (cycles // 2) * tau
    service = build_kernel_service(
        graph,
        specs,
        policy=policy,
        tau=tau,
        seed=seed,
        lan_delay=UniformDelay(ONE_WAY),
        mode="bulk",
        shards=shards,
        processes=processes,
        trace_enabled=False,
    )
    try:
        start = time.perf_counter()
        service.run_until(mid)
        mid_snapshot = service.snapshot()
        service.run_until(horizon)
        wall = time.perf_counter() - start
        snapshot = service.snapshot()
        digest = service.state_digest()
        cycles_done = service.cycles_done
        events = service.events_processed
    finally:
        service.close()

    by_stratum: Dict[int, List[str]] = {}
    for name in snapshot.values:
        by_stratum.setdefault(stratum_of(name), []).append(name)
    elapsed_cycles = max(1.0, (horizon - mid) / tau)
    strata = []
    for stratum in sorted(by_stratum):
        members = by_stratum[stratum]
        errors = [snapshot.errors[name] for name in members]
        mid_errors = [mid_snapshot.errors[name] for name in members]
        growth = (float(np.mean(errors)) - float(np.mean(mid_errors))) / elapsed_cycles
        ceiling = BASE_DELTA * stratum * tau
        strata.append(
            StratumReport(
                stratum=stratum,
                servers=len(members),
                mean_error=float(np.mean(errors)),
                max_error=float(np.max(errors)),
                growth_per_tau=growth,
                lemma1_ceiling=ceiling,
                ok=growth <= ceiling * (1.0 + 1e-9) + 1e-12,
            )
        )
    errors = np.array([snapshot.errors[name] for name in snapshot.values])
    return ScaleRunOutcome(
        size=size,
        policy=policy_name.upper(),
        seed=seed,
        shards=shards,
        processes=processes,
        tau=tau,
        cycles_done=cycles_done,
        events=events,
        wall_seconds=wall,
        events_per_sec=events / wall if wall > 0 else 0.0,
        mean_error=float(errors.mean()),
        max_error=float(errors.max()),
        census_fraction=_census(graph, snapshot),
        state_digest=digest,
        strata=strata,
    )


def main(
    *,
    sizes: Sequence[int],
    seeds: Sequence[int],
    shards: int,
    processes: int,
    tau: float,
    cycles: int,
    json_path: Optional[str] = None,
) -> bool:
    """Run the MM-vs-IM matrix, print the report, return pass/fail.

    Pass requires, for every cell: a completed run, a neighbour-interval
    census of at least 99%, and no stratum growing its mean error faster
    than the Lemma 1 drift ceiling; plus, per (size, seed), the Theorem 8
    comparison — IM's mean error must not exceed MM's.
    """
    outcomes: List[ScaleRunOutcome] = []
    for size in sizes:
        for seed in seeds:
            for policy_name in ("MM", "IM"):
                outcomes.append(
                    run_scale(
                        size,
                        policy_name,
                        seed,
                        shards=shards,
                        processes=processes,
                        tau=tau,
                        cycles=cycles,
                    )
                )

    theorem8: List[Dict[str, object]] = []
    for size in sizes:
        for seed in seeds:
            mm = next(
                o for o in outcomes
                if o.size == size and o.seed == seed and o.policy == "MM"
            )
            im = next(
                o for o in outcomes
                if o.size == size and o.seed == seed and o.policy == "IM"
            )
            theorem8.append(
                {
                    "size": size,
                    "seed": seed,
                    "mm_mean_error": mm.mean_error,
                    "im_mean_error": im.mean_error,
                    "im_no_worse": im.mean_error <= mm.mean_error,
                }
            )

    ok = all(
        o.census_fraction >= 0.99 and o.growth_ok for o in outcomes
    ) and all(row["im_no_worse"] for row in theorem8)

    print(
        f"scale gauntlet: stratum hierarchies at {list(sizes)} servers, "
        f"MM vs IM, τ={tau:g}s, {cycles} cycles, {shards} shard(s), "
        f"{processes} process(es)"
    )
    print(
        harness.render(
            (
                ("size", lambda o: o.size),
                ("policy", lambda o: o.policy),
                ("seed", lambda o: o.seed),
                ("cycles", lambda o: o.cycles_done),
                ("events", lambda o: o.events),
                ("events/s", lambda o: f"{o.events_per_sec:,.0f}"),
                ("mean E", lambda o: f"{o.mean_error * 1e3:.3f} ms"),
                ("max E", lambda o: f"{o.max_error * 1e3:.3f} ms"),
                ("census", lambda o: f"{o.census_fraction:.3f}"),
                ("growth ok", lambda o: "yes" if o.growth_ok else "NO"),
                ("digest", lambda o: f"{o.state_digest:08x}"),
            ),
            outcomes,
        )
    )
    print("\nTheorem 8 (IM mean error <= MM mean error, matched runs):")
    print(
        harness.render(
            (
                ("size", lambda row: row["size"]),
                ("seed", lambda row: row["seed"]),
                ("MM mean E", lambda row: f"{row['mm_mean_error'] * 1e3:.3f} ms"),
                ("IM mean E", lambda row: f"{row['im_mean_error'] * 1e3:.3f} ms"),
                ("IM no worse", lambda row: "yes" if row["im_no_worse"] else "NO"),
            ),
            theorem8,
        )
    )
    largest = max(outcomes, key=lambda o: o.size)
    print(
        f"\nlargest run: {largest.size} servers at "
        f"{largest.events_per_sec:,.0f} events/s "
        f"({largest.events} events in {largest.wall_seconds:.2f}s wall)."
    )
    print("PASS" if ok else "FAIL")

    harness.write_report(
        json_path,
        {
            "experiment": "scale_gauntlet",
            "sizes": list(sizes),
            "seeds": list(seeds),
            "shards": shards,
            "processes": processes,
            "tau": tau,
            "cycles": cycles,
            "ok": ok,
            "theorem8": theorem8,
            "runs": [asdict(o) for o in outcomes],
        },
    )
    return ok


EXPERIMENTS = (
    harness.Experiment(
        "scale-gauntlet",
        "vectorized kernel at scale: MM vs IM stratum hierarchies at "
        "1k-50k servers, per-stratum Lemma 1 growth, Theorem 8 "
        "comparison, neighbour-interval census",
        main,
        {
            "--sizes": dict(type=int, nargs="+", default=[1000, 10000],
                            requires=(lambda sizes: min(sizes) >= 1,
                                      "must be positive"),
                            help="stratum-hierarchy server counts to run"),
            **harness.seeds_flag(0),
            "--shards": dict(type=int, default=4, requires=harness.at_least(1),
                             help="topology shards for the bulk kernel"),
            "--processes": dict(type=int, default=0, requires=harness.at_least(0),
                                help="worker processes (0 = advance shards "
                                     "in-process)"),
            "--tau": dict(type=float, default=DEFAULT_TAU,
                          help="poll period, simulated seconds"),
            "--cycles": dict(type=int, default=DEFAULT_CYCLES,
                             help="poll cycles to simulate per run"),
            **harness.JSON,
        },
    ),
)

"""Theorems 2, 3 and 7 — measured behaviour against the closed-form bounds.

* **Theorem 2** (MM error): ``E_i(t) < E_M(t) + ξ + δ_i(τ + 2ξ)``.
* **Theorem 3** (MM asynchronism):
  ``|C_i - C_j| < 2E_M + 2ξ + (δ_i + δ_j)(τ + 2ξ)``.
* **Theorem 7** (IM asynchronism): ``|C_i - C_j| <= ξ + (δ_i + δ_j)τ``.

Each run builds a fully-connected service (the theorems' topology), with a
heterogeneous δ population so MM actually has errors worth stealing,
samples on a grid, and reports the worst measured/bound ratio.  The
expected *shape*: ratios stay below 1 everywhere (bounds hold), typically
with substantial slack (the proofs are worst-case over adversarial delay
placement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..analysis.metrics import BoundCheck, check_bound, pairwise_asynchronism
from ..core.bounds import ServiceParameters
from ..core.im import IMPolicy
from ..core.mm import MMPolicy
from .scenarios import MeshScenario, build_mesh_service, grid


@dataclass(frozen=True)
class BoundRunResult:
    """One scenario's verdicts.

    Attributes:
        scenario: The parameters used.
        theorem2: Worst per-server bound check (MM error), or None for IM.
        theorem3: Bound check over the worst MM server pair, or None.
        theorem7: Bound check over the worst IM server pair, or None.
    """

    scenario: MeshScenario
    theorem2: BoundCheck | None = None
    theorem3: BoundCheck | None = None
    theorem7: BoundCheck | None = None


def _default_deltas(n: int, base: float) -> list[float]:
    """A spread of claimed bounds: decades from ``base`` up to ``100·base``.

    Heterogeneity matters: with identical δ's, MM-2's predicate never fires
    (no neighbour is strictly better) and the theorems hold vacuously.
    """
    return [base * (10 ** (2.0 * k / max(n - 1, 1))) for k in range(n)]


def run_mm_bounds(
    scenario: MeshScenario, horizon: float = 3600.0, samples: int = 120
) -> BoundRunResult:
    """Measure Theorems 2 and 3 on an MM service."""
    service = build_mesh_service(scenario, MMPolicy())
    snapshots = service.sample(grid(scenario.tau, horizon, samples))
    params = ServiceParameters(xi=scenario.xi, tau=scenario.tau)
    deltas = scenario.delta_map()
    names = scenario.names()

    worst2: BoundCheck | None = None
    for name in names:
        measured = np.array([snap.errors[name] for snap in snapshots])
        bound = np.array(
            [params.mm_error_bound(snap.min_error, deltas[name]) for snap in snapshots]
        )
        verdict = check_bound(measured, bound)
        if worst2 is None or verdict.max_ratio > worst2.max_ratio:
            worst2 = verdict

    worst3: BoundCheck | None = None
    for index, name_i in enumerate(names):
        for name_j in names[index + 1 :]:
            measured = pairwise_asynchronism(snapshots, name_i, name_j)
            bound = np.array(
                [
                    params.mm_asynchronism_bound(
                        snap.min_error, deltas[name_i], deltas[name_j]
                    )
                    for snap in snapshots
                ]
            )
            verdict = check_bound(measured, bound)
            if worst3 is None or verdict.max_ratio > worst3.max_ratio:
                worst3 = verdict

    return BoundRunResult(scenario=scenario, theorem2=worst2, theorem3=worst3)


def run_im_bounds(
    scenario: MeshScenario, horizon: float = 3600.0, samples: int = 120
) -> BoundRunResult:
    """Measure Theorem 7 on an IM service.

    The bound is time-independent, so it is checked from the first
    completed round onwards (the theorem presumes a synchronized service;
    our services start synchronized, so the whole horizon qualifies).
    """
    service = build_mesh_service(scenario, IMPolicy())
    snapshots = service.sample(grid(scenario.tau, horizon, samples))
    params = ServiceParameters(xi=scenario.xi, tau=scenario.tau)
    deltas = scenario.delta_map()
    names = scenario.names()

    worst7: BoundCheck | None = None
    for index, name_i in enumerate(names):
        for name_j in names[index + 1 :]:
            measured = pairwise_asynchronism(snapshots, name_i, name_j)
            bound_value = params.im_asynchronism_bound(
                deltas[name_i], deltas[name_j]
            )
            bound = np.full(len(snapshots), bound_value)
            verdict = check_bound(measured, bound)
            if worst7 is None or verdict.max_ratio > worst7.max_ratio:
                worst7 = verdict

    return BoundRunResult(scenario=scenario, theorem7=worst7)


def sweep(
    sizes: Sequence[int] = (3, 5, 8),
    taus: Sequence[float] = (30.0, 60.0, 120.0),
    base_delta: float = 1e-5,
    seed: int = 0,
    horizon: float = 1800.0,
) -> List[BoundRunResult]:
    """The full sweep the benchmark table prints: MM and IM across n and τ."""
    results: List[BoundRunResult] = []
    for n in sizes:
        for tau in taus:
            scenario = MeshScenario(
                n=n,
                deltas=_default_deltas(n, base_delta),
                tau=tau,
                seed=seed,
            )
            results.append(run_mm_bounds(scenario, horizon=horizon))
            results.append(run_im_bounds(scenario, horizon=horizon))
    return results


def main() -> None:
    """Print the sweep as a table."""
    from ..analysis.plots import render_table

    rows = []
    for result in sweep():
        label = f"n={result.scenario.n} τ={result.scenario.tau:g}"
        if result.theorem2 is not None:
            rows.append(
                [label, "MM", "Thm2", result.theorem2.holds, result.theorem2.max_ratio]
            )
            assert result.theorem3 is not None
            rows.append(
                [label, "MM", "Thm3", result.theorem3.holds, result.theorem3.max_ratio]
            )
        if result.theorem7 is not None:
            rows.append(
                [label, "IM", "Thm7", result.theorem7.holds, result.theorem7.max_ratio]
            )
    print(
        render_table(
            ["scenario", "algorithm", "bound", "holds", "max measured/bound"], rows
        )
    )


if __name__ == "__main__":
    main()

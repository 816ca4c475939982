"""Frequency discipline — closing the Section 5 loop.

The paper's closing idea is to apply MM/IM to clock *rates* as well as
values; the practical payoff (realised a few years later by NTP) is a
*frequency discipline loop*: estimate your own oscillator's skew from how
neighbours drift against you, and trim a software rate correction until
your effective skew is near zero.

This experiment runs the same clock population under IM three ways —

* plain servers,
* rate-tracking servers (measurement only), and
* disciplining servers (measurement + frequency trim) —

anchored by one reference server, and compares the steady-state worst true
offset and asynchronism.  Expected shape: discipline shrinks both by
roughly the ratio between the raw skews and the residual (post-trim) skews,
while the *claimed* errors are unchanged (rule MM-1 grows them at the
claimed δ regardless — discipline improves the truth, not the bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..core.im import IMPolicy
from ..network.delay import UniformDelay
from ..network.topology import full_mesh
from ..service.builder import ServerSpec, build_service
from ..service.discipline import DisciplineStage
from .scenarios import grid


@dataclass(frozen=True)
class DisciplineArm:
    """One variant's steady-state measurements.

    Attributes:
        name: Variant label.
        worst_true_offset: Max |C_i - t| over polling servers in the
            measurement window.
        mean_asynchronism: Mean max-pairwise clock difference.
        mean_claimed_error: Mean reported E (expected ~identical across
            arms).
        residual_skews: Final effective skews of the polling servers
            (only meaningful for the disciplined arm).
    """

    name: str
    worst_true_offset: float
    mean_asynchronism: float
    mean_claimed_error: float
    residual_skews: Dict[str, float]


@dataclass(frozen=True)
class DisciplineResult:
    """All three arms plus the comparison verdicts."""

    plain: DisciplineArm
    tracking: DisciplineArm
    disciplined: DisciplineArm

    @property
    def offset_improvement(self) -> float:
        """Plain worst offset / disciplined worst offset."""
        return self.plain.worst_true_offset / max(
            self.disciplined.worst_true_offset, 1e-12
        )


def _run_arm(
    name: str,
    *,
    n: int,
    delta: float,
    skews: List[float],
    tau: float,
    horizon: float,
    seed: int,
    rate_tracking: bool,
    discipline: bool,
) -> DisciplineArm:
    names = [f"S{k + 1}" for k in range(n)]
    specs = [
        ServerSpec(
            names[k],
            delta=delta,
            skew=skews[k],
            rate_tracking=rate_tracking,
            discipline=discipline,
        )
        for k in range(n)
    ]
    specs.append(ServerSpec("REF", reference=True, initial_error=0.001))
    graph = full_mesh(n)
    graph.add_node("REF")
    for server in names:
        graph.add_edge(server, "REF")
    service = build_service(
        graph,
        specs,
        policy=IMPolicy(),
        tau=tau,
        seed=seed,
        lan_delay=UniformDelay(0.002),
    )
    snapshots = service.sample(grid(horizon / 2, horizon, 40))
    offsets = [
        abs(snap.offsets[name]) for snap in snapshots for name in names
    ]
    asyn = [snap.asynchronism for snap in snapshots]
    errors = [snap.errors[name] for snap in snapshots for name in names]
    residual: Dict[str, float] = {}
    for server_name in names:
        server = service.servers[server_name]
        if server.stage(DisciplineStage) is not None:
            raw_skew = skews[names.index(server_name)]
            residual[server_name] = server.clock.effective_skew(raw_skew)  # type: ignore[attr-defined]
    return DisciplineArm(
        name=name,
        worst_true_offset=float(np.max(offsets)),
        mean_asynchronism=float(np.mean(asyn)),
        mean_claimed_error=float(np.mean(errors)),
        residual_skews=residual,
    )


def run(
    n: int = 6,
    delta: float = 1e-4,
    tau: float = 60.0,
    horizon: float = 6.0 * 3600.0,
    seed: int = 19,
) -> DisciplineResult:
    """Run the three-arm comparison on one clock population."""
    skews = [0.9 * delta * (2.0 * k / (n - 1) - 1.0) for k in range(n)]
    common = dict(
        n=n, delta=delta, skews=skews, tau=tau, horizon=horizon, seed=seed
    )
    return DisciplineResult(
        plain=_run_arm("plain", rate_tracking=False, discipline=False, **common),
        tracking=_run_arm(
            "rate-tracking", rate_tracking=True, discipline=False, **common
        ),
        disciplined=_run_arm(
            "disciplined", rate_tracking=True, discipline=True, **common
        ),
    )


def main() -> None:
    """Print the comparison."""
    from ..analysis.plots import render_table

    result = run()
    rows = [
        [arm.name, arm.worst_true_offset, arm.mean_asynchronism, arm.mean_claimed_error]
        for arm in (result.plain, result.tracking, result.disciplined)
    ]
    print("Frequency discipline — IM + reference, identical clock population")
    print(
        render_table(
            ["variant", "worst |offset| (s)", "mean asyn (s)", "mean claimed E (s)"],
            rows,
        )
    )
    print(f"\noffset improvement from discipline: ×{result.offset_improvement:.1f}")
    residuals = result.disciplined.residual_skews
    if residuals:
        worst = max(abs(v) for v in residuals.values())
        print(f"worst residual skew after discipline: {worst:.2e} "
              f"(raw population spanned ±{0.9 * 1e-4:.1e})")


if __name__ == "__main__":
    main()

"""Metrics over simulation snapshots.

Experiments sample a service on a real-time grid
(:meth:`~repro.service.builder.SimulatedService.sample`) and feed the
snapshot list to these functions to get the series and scores the paper's
claims are judged by: error growth, asynchronism, correctness violations,
and theorem-bound compliance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.bounds import ServiceParameters
from ..service.builder import ServiceSnapshot


def times(snapshots: Sequence[ServiceSnapshot]) -> np.ndarray:
    """The snapshot times as an array."""
    return np.array([snap.time for snap in snapshots])


def error_series(snapshots: Sequence[ServiceSnapshot], name: str) -> np.ndarray:
    """``E_name(t)`` over the snapshots."""
    return np.array([snap.errors[name] for snap in snapshots])


def offset_series(snapshots: Sequence[ServiceSnapshot], name: str) -> np.ndarray:
    """Oracle offset ``C_name(t) - t`` over the snapshots."""
    return np.array([snap.offsets[name] for snap in snapshots])


def min_error_series(snapshots: Sequence[ServiceSnapshot]) -> np.ndarray:
    """``E_M(t)`` — the smallest error in the service at each snapshot."""
    return np.array([snap.min_error for snap in snapshots])


def max_error_series(snapshots: Sequence[ServiceSnapshot]) -> np.ndarray:
    """The largest error in the service at each snapshot."""
    return np.array([snap.max_error for snap in snapshots])


def asynchronism_series(snapshots: Sequence[ServiceSnapshot]) -> np.ndarray:
    """``max_{i,j} |C_i - C_j|`` at each snapshot."""
    return np.array([snap.asynchronism for snap in snapshots])


def worst_true_offset_series(snapshots: Sequence[ServiceSnapshot]) -> np.ndarray:
    """``max_i |C_i(t) - t|`` — the service's worst oracle error."""
    return np.array(
        [max(abs(offset) for offset in snap.offsets.values()) for snap in snapshots]
    )


def correctness_violations(
    snapshots: Sequence[ServiceSnapshot],
) -> List[tuple[float, List[str]]]:
    """Snapshots where some server's interval misses the true time.

    Returns:
        ``(time, offending server names)`` for each violating snapshot.
    """
    violations = []
    for snap in snapshots:
        bad = sorted(name for name, ok in snap.correct.items() if not ok)
        if bad:
            violations.append((snap.time, bad))
    return violations


def consistency_violations(
    snapshots: Sequence[ServiceSnapshot],
) -> List[float]:
    """Times at which the service-wide intersection was empty."""
    return [snap.time for snap in snapshots if not snap.consistent]


@dataclass(frozen=True)
class GrowthRate:
    """A least-squares linear fit of a time series.

    Attributes:
        slope: Fitted rate (units of the series per second).
        intercept: Fitted value at ``t = 0``.
        r_squared: Coefficient of determination (1.0 for a perfect line;
            0.0 when the series has no variance at all).
    """

    slope: float
    intercept: float
    r_squared: float


def growth_rate(t: np.ndarray, values: np.ndarray) -> GrowthRate:
    """Fit ``values ≈ slope·t + intercept``.

    The paper's "long term growth of the error" claims are about exactly
    this slope.

    Raises:
        ValueError: With fewer than two samples.
    """
    if len(t) < 2 or len(t) != len(values):
        raise ValueError(
            f"growth_rate needs matched series of length >= 2, got {len(t)}, {len(values)}"
        )
    slope, intercept = np.polyfit(t, values, deg=1)
    predicted = slope * t + intercept
    total = float(np.sum((values - values.mean()) ** 2))
    residual = float(np.sum((values - predicted) ** 2))
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return GrowthRate(float(slope), float(intercept), r_squared)


@dataclass(frozen=True)
class BoundCheck:
    """Result of checking a measured series against a theoretical bound.

    Attributes:
        samples: Number of points checked.
        violations: Points where the measurement exceeded the bound.
        max_ratio: Largest measured/bound ratio (``<= 1`` means the bound
            held everywhere; small values mean the bound is slack).
    """

    samples: int
    violations: int
    max_ratio: float

    @property
    def holds(self) -> bool:
        """Whether the bound held at every sample."""
        return self.violations == 0


def check_bound(measured: np.ndarray, bound: np.ndarray) -> BoundCheck:
    """Compare a measured series against a per-sample bound series."""
    if len(measured) != len(bound):
        raise ValueError(
            f"series lengths differ: {len(measured)} vs {len(bound)}"
        )
    if len(measured) == 0:
        return BoundCheck(samples=0, violations=0, max_ratio=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bound > 0, measured / bound, np.where(measured > 0, np.inf, 0.0))
    violations = int(np.sum(measured > bound + 1e-12))
    return BoundCheck(
        samples=len(measured),
        violations=violations,
        max_ratio=float(np.max(ratios)),
    )


def theorem2_bound_series(
    snapshots: Sequence[ServiceSnapshot],
    params: ServiceParameters,
    delta_of: Dict[str, float],
    name: str,
) -> np.ndarray:
    """The Theorem 2 bound ``E_M + ξ + δ_i(τ + 2ξ)`` at each snapshot."""
    delta = delta_of[name]
    return np.array(
        [params.mm_error_bound(snap.min_error, delta) for snap in snapshots]
    )


def theorem3_bound_series(
    snapshots: Sequence[ServiceSnapshot],
    params: ServiceParameters,
    delta_i: float,
    delta_j: float,
) -> np.ndarray:
    """The Theorem 3 bound at each snapshot."""
    return np.array(
        [
            params.mm_asynchronism_bound(snap.min_error, delta_i, delta_j)
            for snap in snapshots
        ]
    )


def pairwise_asynchronism(
    snapshots: Sequence[ServiceSnapshot], name_i: str, name_j: str
) -> np.ndarray:
    """``|C_i - C_j|`` over the snapshots for one server pair."""
    return np.array(
        [abs(snap.values[name_i] - snap.values[name_j]) for snap in snapshots]
    )

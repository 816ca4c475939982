"""Local-skew measurement over the live edge set.

The gradient literature's correctness lens: for every edge ``(i, j)``
that exists *right now*, how far apart are ``C_i`` and ``C_j``?
:class:`LocalSkewMonitor` samples that quantity on a fixed grid against a
stated bound, re-reading the (mutable) graph every sample so churned and
mobility-created edges are always the ones being judged.  The breach
counters are what the dynamic gauntlet's acceptance criterion is stated
in: the gradient arm must hold the bound that a plain arm violates.

The same quantity is also exported live as
``repro_edge_local_skew_seconds`` by the telemetry sampler (see
:mod:`repro.telemetry.instruments`); this monitor is the experiment-side
accumulator, usable without a metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from ..simulation.engine import SimulationEngine
from ..simulation.process import SimProcess

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..service.builder import SimulatedService


@dataclass
class LocalSkewStats:
    """Accumulated local-skew observations.

    Attributes:
        samples: Edge-samples taken (per live edge, per grid tick).
        breaches: Edge-samples whose skew exceeded the bound.
        max_skew: Largest skew ever observed on any live edge.
        breached_edges: Per-edge breach counts, keyed ``"A-B"``.
    """

    samples: int = 0
    breaches: int = 0
    max_skew: float = 0.0
    breached_edges: Dict[str, int] = field(default_factory=dict)


class LocalSkewMonitor(SimProcess):
    """Samples ``|C_i - C_j|`` across currently live edges vs a bound.

    Args:
        engine: The simulation engine.
        service: The built service (graph + servers are read live).
        bound: The stated local-skew bound in seconds.
        period: Sampling period.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        service: SimulatedService,
        *,
        bound: float,
        period: float = 5.0,
        name: str = "localskew",
    ) -> None:
        super().__init__(engine, name)
        if bound <= 0 or period <= 0:
            raise ValueError("bound and period must be positive")
        self.service = service
        self.bound = float(bound)
        self.period = float(period)
        self.stats = LocalSkewStats()

    def on_start(self) -> None:
        self.every(self.period, self.check_now, first_at=self.now + self.period)

    def check_now(self) -> None:
        """Take one sample over every live edge between present servers."""
        values: Dict[str, float] = {}
        for name, server in self.service.servers.items():
            if server.policy is None or server.departed:
                continue
            values[name] = server.clock_value()
        stats = self.stats
        for a, b in sorted(
            (min(x, y), max(x, y)) for x, y in self.service.network.graph.edges
        ):
            if a not in values or b not in values:
                continue
            skew = abs(values[a] - values[b])
            stats.samples += 1
            if skew > stats.max_skew:
                stats.max_skew = skew
            if skew > self.bound:
                stats.breaches += 1
                edge = f"{a}-{b}"
                stats.breached_edges[edge] = stats.breached_edges.get(edge, 0) + 1

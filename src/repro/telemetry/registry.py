"""The in-sim metrics registry: labelled counter/gauge/histogram families.

The paper's guarantees are statements about numbers — error bounds
(Theorems 2/3), asynchronism (Theorem 7), round/reset behaviour — that the
repo historically could only inspect *after* a run by replaying trace
snapshots.  This module supplies the online half: a Prometheus-style
metrics registry that every layer of the simulation writes into as it
runs, cheap enough to leave wired in permanently.

Design notes
------------

* **Families and children.**  ``registry.counter(name, help, labelnames)``
  returns a :class:`MetricFamily`; ``family.labels(server="S1")`` returns
  the child instrument for that label combination (created on first use).
  A family with no label names has a single anonymous child reachable via
  ``family.labels()`` — or just call ``inc``/``set``/``observe`` on the
  family itself, which proxies to it.
* **Scoped views.**  :meth:`MetricsRegistry.scoped` returns a view that
  injects constant labels (e.g. ``server="S1"``) into every family it
  creates, so a per-server component can hold what looks like its own
  registry while all samples aggregate into the service-wide one.
* **Null objects.**  :class:`NullRegistry` (and the null instruments it
  hands out) implement the full interface as no-ops, so disabled
  telemetry costs one attribute lookup and an empty method call on the
  hot path — no ``if telemetry is not None`` branching at call sites.
* **Determinism.**  Nothing here reads wall clocks or draws randomness;
  all values come from the simulation.  Export order is sorted, so two
  identical-seed runs serialize byte-identical snapshots.
* **Histograms** use fixed log-spaced buckets (cumulative, Prometheus
  style) plus a streaming P² quantile sketch for p50/p99 — O(1) memory
  and deterministic, unlike sampling reservoirs.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "P2Quantile",
    "default_buckets",
    "metric_field",
]

LabelValues = Tuple[str, ...]


def metric_field(help_text: str):
    """A ``@dataclass`` stats counter the telemetry plane exports.

    The field is a plain ``int`` starting at 0; its class's ``prefix``
    names the counter family ``<prefix><field>_total``, which the
    server's telemetry handle reads at scrape time (see
    :meth:`~repro.telemetry.instruments.ServerTelemetry.bind`).
    """
    return dataclasses.field(default=0, metadata={"help": help_text})


def default_buckets() -> Tuple[float, ...]:
    """The default fixed log buckets: 1e-6 .. 1e3 seconds, decade steps
    with a 1-2-5 subdivision — wide enough for event gaps and RTTs alike.
    """
    buckets: List[float] = []
    for exponent in range(-6, 4):
        for mantissa in (1.0, 2.0, 5.0):
            buckets.append(mantissa * 10.0**exponent)
    return tuple(buckets)


class P2Quantile:
    """Jain & Chlamtac's P² streaming quantile estimator.

    Tracks one quantile ``q`` in O(1) space with deterministic updates —
    exactly what an always-on telemetry plane needs.  Until five samples
    have arrived the estimate is exact (sorted buffer).
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._initial: List[float] = []
        # Marker heights, positions, and desired positions (5 markers).
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)
        self.count = 0

    def observe(self, value: float) -> None:
        """Fold one sample into the estimate."""
        self.count += 1
        if len(self._initial) < 5:
            bisect.insort(self._initial, value)
            if len(self._initial) == 5:
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0,
                    1.0 + 2.0 * self.q,
                    1.0 + 4.0 * self.q,
                    3.0 + 2.0 * self.q,
                    5.0,
                ]
            return
        heights, positions = self._heights, self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for k in range(cell + 1, 5):
            positions[k] += 1.0
        for k in range(5):
            self._desired[k] += self._increments[k]
        # Adjust the three interior markers toward their desired positions.
        for k in (1, 2, 3):
            delta = self._desired[k] - positions[k]
            if (delta >= 1.0 and positions[k + 1] - positions[k] > 1.0) or (
                delta <= -1.0 and positions[k - 1] - positions[k] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(k, step)
                if heights[k - 1] < candidate < heights[k + 1]:
                    heights[k] = candidate
                else:
                    heights[k] = self._linear(k, step)
                positions[k] += step

    def _parabolic(self, k: int, step: float) -> float:
        h, p = self._heights, self._positions
        return h[k] + step / (p[k + 1] - p[k - 1]) * (
            (p[k] - p[k - 1] + step) * (h[k + 1] - h[k]) / (p[k + 1] - p[k])
            + (p[k + 1] - p[k] - step) * (h[k] - h[k - 1]) / (p[k] - p[k - 1])
        )

    def _linear(self, k: int, step: float) -> float:
        h, p = self._heights, self._positions
        j = k + int(step)
        return h[k] + step * (h[j] - h[k]) / (p[j] - p[k])

    @property
    def value(self) -> float:
        """The current quantile estimate (NaN before any sample)."""
        if self._heights:
            return self._heights[2]
        if not self._initial:
            return math.nan
        # Exact quantile over the (< 5) buffered samples.
        rank = self.q * (len(self._initial) - 1)
        low = int(rank)
        high = min(low + 1, len(self._initial) - 1)
        frac = rank - low
        return self._initial[low] * (1.0 - frac) + self._initial[high] * frac


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (queue depth, live ``E_i``...)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed log-bucket histogram plus a P² sketch for p50/p99.

    Buckets are cumulative at export time (Prometheus ``le`` semantics);
    internally each bucket stores its own count.

    ``observe`` sits on the simulator's hottest paths (every engine
    event, every poll reply), so samples are buffered and folded lazily:
    the bucket bisect, the running sum, and the P² sketch updates all
    happen on the next *read* (or when the buffer hits its cap), in
    arrival order — every reader sees exactly the state eager folding
    would have produced, and the hot path is a bare ``list.append``.
    """

    __slots__ = ("_bounds", "_counts", "_sum", "_count", "_sketches", "_pending")

    #: Fold the buffer at this size so memory stays bounded even on runs
    #: that never read the histogram back.
    FLUSH_AT = 4096

    def __init__(
        self,
        buckets: Optional[Sequence[float]] = None,
        quantiles: Sequence[float] = (0.5, 0.99),
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else default_buckets()
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # final slot: +Inf
        self._sum = 0.0
        self._count = 0
        self._sketches = {q: P2Quantile(q) for q in quantiles}
        self._pending: List[float] = []

    def observe(self, value: float) -> None:
        """Record one sample (folded lazily on the next read)."""
        pending = self._pending
        pending.append(value)
        if len(pending) >= self.FLUSH_AT:
            self._fold()

    def _fold(self) -> None:
        """Fold buffered samples into buckets, sum, and sketches."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        counts = self._counts
        bounds = self._bounds
        locate = bisect.bisect_left
        total = self._sum
        for value in pending:
            counts[locate(bounds, value)] += 1
            total += value
        self._sum = total
        self._count += len(pending)
        for sketch in self._sketches.values():
            fold = sketch.observe
            for value in pending:
                fold(value)

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def sum(self) -> float:
        self._fold()
        return self._sum

    @property
    def value(self) -> float:
        """Alias so generic export code can treat any instrument alike."""
        self._fold()
        return float(self._count)

    def quantile(self, q: float) -> float:
        """The sketch's estimate for quantile ``q`` (must be tracked)."""
        self._fold()
        return self._sketches[q].value

    @property
    def quantiles(self) -> Dict[float, float]:
        """All tracked quantile estimates."""
        self._fold()
        return {q: sketch.value for q, sketch in self._sketches.items()}

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` rows, ending with +Inf."""
        self._fold()
        rows: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self._bounds, self._counts):
            running += count
            rows.append((bound, running))
        rows.append((math.inf, self._count))
        return rows


_INSTRUMENTS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children of one metric name, across label combinations."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        constant_labels: Mapping[str, str],
        **instrument_kwargs,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self._constant = dict(constant_labels)
        self._kwargs = instrument_kwargs
        self._children: Dict[LabelValues, object] = {}

    def labels(self, **labels: str):
        """The child instrument for one label combination."""
        expected = set(self.labelnames) - set(self._constant)
        if set(labels) != expected:
            raise ValueError(
                f"{self.name}: expected labels {sorted(expected)}, "
                f"got {sorted(labels)}"
            )
        merged = dict(self._constant)
        merged.update({k: str(v) for k, v in labels.items()})
        key = tuple(merged[name] for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = _INSTRUMENTS[self.kind](**self._kwargs)
            self._children[key] = child
        return child

    # Convenience proxies for label-free families -------------------------

    def _solo(self):
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self) -> float:
        return self._solo().value

    def samples(self) -> Iterable[Tuple[LabelValues, object]]:
        """``(label_values, child)`` pairs in sorted label order."""
        return sorted(self._children.items())

    def total(self) -> float:
        """Sum of all children's scalar values (count for histograms)."""
        return sum(child.value for _labels, child in self._children.items())


class MetricsRegistry:
    """The service-wide family store.

    Re-registering a name returns the existing family (so every server can
    independently ask for ``repro_sync_rounds_total``), but mismatched
    type/labelnames raise — silent divergence would corrupt the export.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List = []

    # --------------------------------------------------------- collectors

    def add_collector(self, fn) -> None:
        """Register a flush hook run before any read.

        Hot instrumentation sites (the per-event engine observer) batch
        into plain attributes, and each server's handle reads its stats
        objects; both register a collector that brings their counter
        children up to date.  Readers (:meth:`families`, :meth:`get`,
        :meth:`value`) run the collectors first, so every read sees
        exactly the state eager increments would have produced.
        """
        self._collectors.append(fn)

    def collect(self) -> None:
        """Run every registered collector (idempotent between writes)."""
        for fn in self._collectors:
            fn()

    # -------------------------------------------------------- registration

    def _get_or_create(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Sequence[str],
        constant_labels: Mapping[str, str],
        **kwargs,
    ) -> MetricFamily:
        family = self._families.get(name)
        names = tuple(labelnames)
        if family is not None:
            if family.kind != kind or family.labelnames != names:
                raise ValueError(
                    f"metric {name!r} re-registered as {kind}{names}, "
                    f"was {family.kind}{family.labelnames}"
                )
            return family
        family = MetricFamily(name, kind, help_text, names, constant_labels, **kwargs)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """Get or create a counter family."""
        return self._get_or_create(name, "counter", help_text, labelnames, {})

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """Get or create a gauge family."""
        return self._get_or_create(name, "gauge", help_text, labelnames, {})

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
        quantiles: Sequence[float] = (0.5, 0.99),
    ) -> MetricFamily:
        """Get or create a histogram family."""
        return self._get_or_create(
            name,
            "histogram",
            help_text,
            labelnames,
            {},
            buckets=buckets,
            quantiles=quantiles,
        )

    # -------------------------------------------------------------- views

    def scoped(self, **constant_labels: str) -> "ScopedRegistry":
        """A view that stamps ``constant_labels`` onto every family."""
        return ScopedRegistry(self, {k: str(v) for k, v in constant_labels.items()})

    @property
    def enabled(self) -> bool:
        """Real registries record; the :class:`NullRegistry` does not."""
        return True

    def families(self) -> List[MetricFamily]:
        """All families, sorted by name (export order)."""
        self.collect()
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        """Look a family up by name (None when absent)."""
        self.collect()
        return self._families.get(name)

    def value(self, name: str, **labels: str) -> float:
        """Shortcut: one child's scalar value (0.0 for missing children)."""
        self.collect()
        family = self._families.get(name)
        if family is None:
            return 0.0
        try:
            return family.labels(**labels).value
        except ValueError:
            return 0.0


class ScopedRegistry:
    """A label-injecting view over a :class:`MetricsRegistry`.

    Each family it creates carries the scope's constant labels merged into
    the label names, so ``scoped(server="S1").counter("x", labelnames=("rule",))``
    exports as ``x{rule=..., server="S1"}`` — per-server registries that
    aggregate into the service-wide one for free.
    """

    def __init__(self, parent: MetricsRegistry, constant_labels: Dict[str, str]):
        self._parent = parent
        self._constant = constant_labels

    def _merged_names(self, labelnames: Sequence[str]) -> Tuple[str, ...]:
        extra = tuple(name for name in labelnames if name not in self._constant)
        return tuple(sorted(self._constant)) + extra

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        family = self._parent._get_or_create(
            name, "counter", help_text, self._merged_names(labelnames), {}
        )
        return _ScopedFamily(family, self._constant)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        family = self._parent._get_or_create(
            name, "gauge", help_text, self._merged_names(labelnames), {}
        )
        return _ScopedFamily(family, self._constant)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
        quantiles: Sequence[float] = (0.5, 0.99),
    ) -> MetricFamily:
        family = self._parent._get_or_create(
            name,
            "histogram",
            help_text,
            self._merged_names(labelnames),
            {},
            buckets=buckets,
            quantiles=quantiles,
        )
        return _ScopedFamily(family, self._constant)

    def scoped(self, **constant_labels: str) -> "ScopedRegistry":
        merged = dict(self._constant)
        merged.update({k: str(v) for k, v in constant_labels.items()})
        return ScopedRegistry(self._parent, merged)

    def add_collector(self, fn) -> None:
        self._parent.add_collector(fn)

    @property
    def enabled(self) -> bool:
        return True


class _ScopedFamily:
    """A family view with the scope's labels pre-bound."""

    __slots__ = ("_family", "_constant")

    def __init__(self, family: MetricFamily, constant: Dict[str, str]) -> None:
        self._family = family
        self._constant = constant

    def labels(self, **labels: str):
        merged = dict(self._constant)
        merged.update(labels)
        return self._family.labels(**merged)

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        return self.labels().value


class _NullInstrument:
    """One object standing in for counter, gauge, and histogram alike."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, **labels: str) -> "_NullInstrument":
        return self

    def quantile(self, q: float) -> float:
        return math.nan

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled-telemetry registry: every call is a cheap no-op.

    Hands out one shared :class:`_NullInstrument` for everything, so the
    instrumented hot paths (`inc`, `observe`, `set`) cost an attribute
    lookup and an empty call — measured under 2% on a figure-1-scale run
    by ``benchmarks/test_bench_telemetry.py``.
    """

    def counter(self, name: str, help_text: str = "", labelnames=()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help_text: str = "", labelnames=()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, help_text: str = "", labelnames=(), buckets=None, quantiles=()
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def scoped(self, **constant_labels: str) -> "NullRegistry":
        return self

    def add_collector(self, fn) -> None:
        pass

    @property
    def enabled(self) -> bool:
        return False

    def families(self) -> List[MetricFamily]:
        return []

    def get(self, name: str) -> None:
        return None

    def value(self, name: str, **labels: str) -> float:
        return 0.0


NULL_REGISTRY = NullRegistry()

"""Tests for the metrics registry: families, labels, scoping."""

from __future__ import annotations

import math

import pytest

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    P2Quantile,
    default_buckets,
)

pytestmark = pytest.mark.telemetry


# ------------------------------------------------------------- instruments


def test_counter_monotone():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1.0)


def test_gauge_set_inc_dec():
    g = Gauge()
    g.set(4.0)
    g.inc(0.5)
    g.dec(2.0)
    assert g.value == 2.5


def test_histogram_buckets_are_cumulative():
    h = Histogram(buckets=(1.0, 10.0))
    for v in (0.5, 0.7, 5.0, 50.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(56.2)
    cumulative = h.cumulative_buckets()
    assert [le for le, _ in cumulative] == [1.0, 10.0, math.inf]
    assert [n for _, n in cumulative] == [2, 3, 4]


def test_histogram_quantiles_track_distribution():
    h = Histogram()
    for k in range(1, 1001):
        h.observe(k / 1000.0)
    q = h.quantiles
    assert q[0.5] == pytest.approx(0.5, abs=0.05)
    assert q[0.99] == pytest.approx(0.99, abs=0.05)


def test_p2_quantile_small_samples_exact():
    sketch = P2Quantile(0.5)
    for v in (3.0, 1.0, 2.0):
        sketch.observe(v)
    assert sketch.value == 2.0


def test_default_buckets_span_microseconds_to_kiloseconds():
    buckets = default_buckets()
    assert buckets[0] <= 1e-6
    assert buckets[-1] >= 1e3
    assert list(buckets) == sorted(buckets)


# ---------------------------------------------------------------- families


def test_family_labels_and_samples_sorted():
    reg = MetricsRegistry()
    fam = reg.counter("repro_x_total", "x", labelnames=("server",))
    fam.labels(server="S2").inc()
    fam.labels(server="S1").inc(2)
    assert [(lv, c.value) for lv, c in fam.samples()] == [
        (("S1",), 2.0),
        (("S2",), 1.0),
    ]
    assert fam.total() == 3.0


def test_family_rejects_wrong_labelset():
    reg = MetricsRegistry()
    fam = reg.counter("repro_y_total", "y", labelnames=("server",))
    with pytest.raises(ValueError):
        fam.labels(nope="S1")
    with pytest.raises(ValueError):
        fam.labels()


def test_registry_rejects_type_and_label_mismatch():
    reg = MetricsRegistry()
    reg.counter("repro_z_total", "z")
    with pytest.raises(ValueError):
        reg.gauge("repro_z_total", "z")
    with pytest.raises(ValueError):
        reg.counter("repro_z_total", "z", labelnames=("server",))


def test_registry_get_or_create_is_idempotent():
    reg = MetricsRegistry()
    a = reg.counter("repro_same_total", "same")
    b = reg.counter("repro_same_total", "same")
    assert a is b


def test_registry_value_falls_back_to_zero():
    reg = MetricsRegistry()
    assert reg.value("repro_absent_total") == 0.0
    fam = reg.counter("repro_present_total", "p", labelnames=("server",))
    fam.labels(server="S1").inc()
    assert reg.value("repro_present_total", server="S1") == 1.0
    assert reg.value("repro_present_total", server="S9") == 0.0


def test_families_listing_is_sorted_by_name():
    reg = MetricsRegistry()
    reg.counter("repro_b_total", "b")
    reg.gauge("repro_a", "a")
    assert [f.name for f in reg.families()] == ["repro_a", "repro_b_total"]


# ----------------------------------------------------------------- scoping


def test_scoped_registry_injects_constant_labels():
    reg = MetricsRegistry()
    s1 = reg.scoped(server="S1")
    s2 = reg.scoped(server="S2")
    fam1 = s1.counter("repro_rounds_total", "rounds")
    fam2 = s2.counter("repro_rounds_total", "rounds")
    fam1.inc()
    fam1.inc()
    fam2.inc()
    root = reg.get("repro_rounds_total")
    assert root is not None
    assert root.total() == 3.0
    assert reg.value("repro_rounds_total", server="S1") == 2.0
    assert reg.value("repro_rounds_total", server="S2") == 1.0


def test_scoped_registry_merges_extra_labelnames():
    reg = MetricsRegistry()
    scoped = reg.scoped(server="S1")
    fam = scoped.counter("repro_outcomes_total", "o", labelnames=("outcome",))
    fam.labels(outcome="ok").inc()
    assert reg.value("repro_outcomes_total", server="S1", outcome="ok") == 1.0


def test_scoped_registry_with_explicit_server_label():
    # A family whose extras already include the scope's constant must
    # produce the identical merged labelset, not a duplicate.
    reg = MetricsRegistry()
    scoped = reg.scoped(server="S1")
    fam = scoped.gauge("repro_err", "e", labelnames=("server",))
    fam.labels(server="S1").set(0.5)
    assert reg.value("repro_err", server="S1") == 0.5


# ---------------------------------------------------------------- the null


def test_null_registry_is_inert():
    null = NullRegistry()
    assert not null.enabled
    fam = null.counter("whatever", "w", labelnames=("a",))
    fam.labels(a="x").inc()
    fam.inc()
    null.gauge("g", "g").set(5.0)
    null.histogram("h", "h").observe(1.0)
    assert null.families() == []
    assert null.value("whatever") == 0.0
    assert null.scoped(server="S1") is not None

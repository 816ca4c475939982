"""Acceptance tests for the wired telemetry plane.

The contract: metrics and spans must agree *exactly* with the simulation's
own ground truth (ServerStats and the TraceRecorder), artefacts must be
byte-identical across identical-seed runs, and the live per-edge
asynchronism gauge must respect the Theorem 7 bound in a fault-free run.
"""

from __future__ import annotations

import dataclasses

import networkx as nx
import pytest

from repro.core.im import IMPolicy
from repro.core.mm import MMPolicy
from repro.experiments import chaos_soak, figure1
from repro.holdover import HoldoverConfig
from repro.holdover.server import HoldoverStats
from repro.load.capacity import CapacityConfig
from repro.load.server import LoadStats
from repro.network.delay import ConstantDelay
from repro.network.topology import full_mesh
from repro.security import Keyring, SecurityConfig
from repro.security.server import SecurityStats
from repro.service.builder import ServerSpec, build_service
from repro.service.client import QueryStrategy
from repro.service.hardening import HardeningConfig, HardeningStats
from repro.simulation.engine import SimulationEngine
from repro.telemetry import (
    NULL_SERVER_TELEMETRY,
    NULL_SERVICE_TELEMETRY,
    EngineInstruments,
    MetricsRegistry,
    NullRegistry,
    ServiceTelemetry,
    render_dashboard,
    run_top,
)

pytestmark = pytest.mark.telemetry

#: One figure-1 row is plenty for count reconciliation (10 rounds/server).
SHORT = (600.0,)


@pytest.fixture(scope="module")
def instrumented():
    """One short instrumented Figure 1 run shared by the read-only tests."""
    return figure1.run_instrumented(times=SHORT)


# ------------------------------------------ counts read from stats objects

#: ``(family, labels, server attribute holding the stats, field)``: every
#: counter family the server handle reads from a stats object.
STATS_COUNTERS = [
    ("repro_sync_rounds_total", {}, "stats", "rounds"),
    ("repro_sync_polls_total", {"outcome": "sent"}, "stats", "polls_sent"),
    ("repro_sync_polls_total", {"outcome": "unsent"}, "stats", "polls_unsent"),
    *[
        ("repro_sync_replies_total", {"verdict": verdict}, "stats", field)
        for verdict, field in (
            ("adopted", "replies_adopted"),
            ("rejected", "rejects"),
            ("inconsistent", "replies_inconsistent"),
            ("received", "replies_received"),
            ("invalid", "invalid_poll_replies"),
            ("pruned", "polls_pruned"),
        )
    ],
    ("repro_clock_resets_total", {"kind": "sync"}, "stats", "sync_resets"),
    ("repro_clock_resets_total", {"kind": "recovery"}, "stats", "recovery_resets"),
    ("repro_sync_adoptions_total", {}, "stats", "sync_resets"),
    ("repro_sync_inconsistencies_total", {}, "stats", "inconsistencies"),
    *[
        ("repro_requests_answered_total", {"kind": kind}, "stats", f"{kind}_answers")
        for kind in ("poll", "client", "recovery")
    ],
    ("repro_byzantine_demotions_total", {}, "byzantine_stats", "demotions"),
    *[
        (f"{cls.prefix}{field.name}_total", {}, attr, field.name)
        for cls, attr in (
            (HardeningStats, "hardening_stats"),
            (SecurityStats, "security_stats"),
            (HoldoverStats, "holdover_stats"),
            (LoadStats, "load_stats"),
        )
        for field in dataclasses.fields(cls)
    ],
]


@pytest.fixture(scope="module")
def every_stage():
    """Five servers, all hardened, authenticated and load-aware, holdover
    on one, Byzantine tolerance on two, under MM and IM over lossy links,
    with a liar, a server that must adopt, and a client hub pushing the
    load stage into degraded mode; telemetry on."""
    telemetry = ServiceTelemetry(spans=False)
    graph = full_mesh(5)
    graph.add_edges_from(("C", f"S{k}") for k in range(1, 6))
    specs = [
        ServerSpec("S1", delta=1e-5, byzantine_tolerant=True),
        ServerSpec("S2", delta=1e-5, holdover=True),
        ServerSpec("S3", delta=1e-5, initial_error=5.0),
        ServerSpec("S4", delta=1e-5, skew=-2e-5, byzantine_tolerant=True),
        ServerSpec("S5", delta=1e-6, skew=5e-3),
    ]
    service = build_service(
        graph,
        specs,
        policy_factory=lambda name: MMPolicy() if name in ("S3", "S5") else IMPolicy(),
        tau=30.0,
        seed=4,
        loss_probability=0.02,
        hardening=HardeningConfig(),
        security=SecurityConfig(),
        capacity=CapacityConfig(service_time=0.15, degraded_time=0.002, queue_limit=8),
        holdover=HoldoverConfig(no_source_window=90.0),
        telemetry=telemetry,
    )
    client = service.add_client("C")
    client.start()

    def ask() -> None:
        client.ask(sorted(service.servers), strategy=QueryStrategy.INTERSECT)
        client.call_after(0.1, ask)

    service.engine.schedule_after(0.5, ask)
    service.run_until(300.0)
    return service, telemetry


def test_every_stage_service_counts_something(every_stage):
    service, _ = every_stage
    servers = service.servers.values()
    for attr in {attr for _, _, attr, _ in STATS_COUNTERS}:
        assert any(hasattr(server, attr) for server in servers), attr
    moved = {
        (family, tuple(labels.items()))
        for family, labels, attr, field in STATS_COUNTERS
        if any(getattr(getattr(s, attr, None), field, 0) for s in servers)
    }
    # Not 0 == 0 throughout.  The MAC/replay/delay-guard and holdover
    # families that stay at zero here move in the pinned telemetry
    # bundles (tests/test_telemetry_goldens.py).
    assert len(moved) >= 24


@pytest.mark.parametrize(
    "family, labels, attr, field",
    STATS_COUNTERS,
    ids=[
        "-".join([family, *labels.values()]) for family, labels, _, _ in STATS_COUNTERS
    ],
)
def test_round_counters_match_server_stats(every_stage, family, labels, attr, field):
    service, telemetry = every_stage
    reg = telemetry.registry
    for name, server in service.servers.items():
        stats = getattr(server, attr, None)
        expected = 0 if stats is None else getattr(stats, field)
        assert reg.value(family, server=name, **labels) == expected, name


def test_answered_kinds_sum_to_requests_answered(every_stage):
    service, telemetry = every_stage
    family = telemetry.registry.get("repro_requests_answered_total")
    for name, server in service.servers.items():
        total = sum(
            child.value
            for label_values, child in family.samples()
            if name in label_values
        )
        assert total == server.stats.requests_answered > 0


@pytest.mark.parametrize(
    "attr, field", [("stats", "rounds"), ("hardening_stats", "retries_sent")]
)
def test_a_stats_field_going_down_raises_at_the_next_scrape(attr, field):
    telemetry = ServiceTelemetry(spans=False)
    service = build_service(
        full_mesh(3),
        [ServerSpec(f"S{k + 1}", delta=1e-5) for k in range(3)],
        policy=MMPolicy(),
        tau=10.0,
        seed=1,
        hardening=HardeningConfig(),
        telemetry=telemetry,
    )
    service.run_until(60.0)
    stats = getattr(service.servers["S1"], attr)
    setattr(stats, field, getattr(stats, field) + 1)
    telemetry.registry.collect()
    setattr(stats, field, getattr(stats, field) - 1)
    with pytest.raises(ValueError, match="counters only go up"):
        telemetry.registry.collect()


def test_degraded_answers_count_under_client():
    """LoadStage's degraded replies are answers: the per-kind family sums
    to ``stats.requests_answered`` even while the server degrades."""
    telemetry = ServiceTelemetry(spans=False)
    graph = nx.Graph([("C", "S")])
    service = build_service(
        graph,
        [ServerSpec("S", delta=1e-4, initial_error=0.01, polls=False)],
        policy=None,
        tau=60.0,
        seed=3,
        lan_delay=ConstantDelay(0.001),
        capacity=CapacityConfig(service_time=0.01, degraded_time=0.002),
        telemetry=telemetry,
    )
    client = service.add_client("C")
    client.start()
    server = service.servers["S"]
    service.run_until(10.0)
    server.detector.overloaded = True
    server.detector.ewma = 1.0  # stays above the exit threshold
    for _ in range(5):
        client.ask(["S"])
    service.run_until(11.0)
    assert server.load_stats.degraded_replies == 5
    answered = telemetry.registry.get("repro_requests_answered_total")
    assert sum(child.value for _, child in answered.samples()) == (
        server.stats.requests_answered
    ) == 5


def test_telemetry_off_builds_no_registry(monkeypatch):
    """The authenticated mesh (hardening + security stats on every
    server) builds no metrics registry when telemetry is off."""
    built = []
    init = MetricsRegistry.__init__

    def counting_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(MetricsRegistry, "__init__", counting_init)
    service = build_service(
        full_mesh(8),
        [ServerSpec(f"S{k + 1}", delta=1e-5) for k in range(8)],
        policy=MMPolicy(),
        tau=10.0,
        seed=0,
        hardening=HardeningConfig(),
        security=SecurityConfig(keyring=Keyring.from_secret("bench-0")),
    )
    for server in service.servers.values():
        assert server.hardening_stats is not None and server.security_stats is not None
    assert built == []


def test_reset_counters_match_trace_ground_truth(instrumented):
    _, service, telemetry = instrumented
    reg = telemetry.registry
    for name in service.servers:
        sync_resets = [
            row
            for row in service.trace.filter(kind="reset", source=name)
            if row.data.get("reset_kind") == "sync"
        ]
        assert reg.value(
            "repro_clock_resets_total", server=name, kind="sync"
        ) == len(sync_resets)
        assert reg.value(
            "repro_sync_adoptions_total", server=name
        ) == len(sync_resets)
        # Reset event spans mirror the trace rows one-for-one.
        assert len(telemetry.tracer.filter(name="reset", source=name)) == len(
            sync_resets
        )


def test_round_spans_match_round_counts(instrumented):
    _, service, telemetry = instrumented
    rounds = telemetry.tracer.filter(name="poll_round")
    assert len(rounds) == sum(s.stats.rounds for s in service.servers.values())
    assert all(not span.open for span in rounds)
    assert {span.status for span in rounds} <= {
        "ok",
        "reset",
        "no_reset",
        "inconsistent",
        "abandoned",
    }
    # Every poll leg is parented by a round span of the same server.
    by_id = {span.span_id: span for span in telemetry.tracer}
    for leg in telemetry.tracer.filter(name="poll"):
        parent = by_id[leg.parent_id]
        assert parent.name == "poll_round"
        assert parent.source == leg.source


def test_engine_counters_match_engine(instrumented):
    _, service, telemetry = instrumented
    reg = telemetry.registry
    assert (
        reg.value("repro_engine_events_total")
        == service.engine.events_processed
    )
    assert reg.value("repro_engine_heap_depth") == service.engine.heap_depth


def test_theorem7_gauge_never_breached_without_faults(instrumented):
    _, service, telemetry = instrumented
    reg = telemetry.registry
    assert reg.value("repro_theorem7_breaches_total") == 0.0
    asyn = reg.get("repro_edge_asynchronism_seconds")
    bound = reg.get("repro_edge_asynchronism_bound_seconds")
    assert asyn is not None and bound is not None
    edges = {lv[0] for lv, _ in asyn.samples()}
    assert edges == {"S1-S2", "S1-S3", "S2-S3"}
    for (edge,), child in asyn.samples():
        assert child.value <= bound.labels(edge=edge).value


def test_error_gauge_tracks_live_bound(instrumented):
    _, service, telemetry = instrumented
    telemetry.sampler.sample_now()  # pin the gauges to the frozen engine time
    reg = telemetry.registry
    for name, server in service.servers.items():
        _, error = server.report()
        assert reg.value(
            "repro_server_error_seconds", server=name
        ) == pytest.approx(error)


def test_artifacts_byte_identical_across_identical_seeds(tmp_path):
    paths = []
    for arm in ("a", "b"):
        _, service, telemetry = figure1.run_instrumented(times=SHORT, seed=7)
        out = tmp_path / arm
        telemetry.write(out, time=service.engine.now)
        paths.append(out)
    first, second = paths
    assert (first / "metrics.prom").read_bytes() == (
        second / "metrics.prom"
    ).read_bytes()
    assert (first / "spans.jsonl").read_bytes() == (
        second / "spans.jsonl"
    ).read_bytes()
    assert (first / "summary.json").read_bytes() == (
        second / "summary.json"
    ).read_bytes()


def test_different_seed_changes_artifacts(tmp_path):
    _, service7, tele7 = figure1.run_instrumented(times=SHORT, seed=7)
    _, service8, tele8 = figure1.run_instrumented(times=SHORT, seed=8)
    tele7.write(tmp_path / "s7", time=service7.engine.now)
    tele8.write(tmp_path / "s8", time=service8.engine.now)
    assert (tmp_path / "s7" / "spans.jsonl").read_bytes() != (
        tmp_path / "s8" / "spans.jsonl"
    ).read_bytes()


# --------------------------------------------------------- disabled plane


def test_build_service_without_telemetry_uses_nulls():
    specs = [ServerSpec(f"S{k + 1}", delta=1e-5) for k in range(3)]
    service = build_service(full_mesh(3), specs, policy=None, tau=60.0, seed=0)
    assert service.telemetry is NULL_SERVICE_TELEMETRY
    for server in service.servers.values():
        assert server.telemetry is NULL_SERVER_TELEMETRY
    service.run_until(120.0)  # no-op instruments must not disturb the run


def test_null_registry_service_telemetry_is_inert():
    telemetry = ServiceTelemetry(registry=NullRegistry())
    assert not telemetry.enabled
    assert telemetry.server("S1") is NULL_SERVER_TELEMETRY
    specs = [ServerSpec(f"S{k + 1}", delta=1e-5) for k in range(3)]
    service = build_service(
        full_mesh(3), specs, policy=None, tau=60.0, seed=0, telemetry=telemetry
    )
    service.run_until(120.0)
    assert telemetry.registry.families() == []
    assert len(telemetry.tracer) == 0


# -------------------------------------------------------- engine observer


def test_engine_instruments_count_events():
    engine = SimulationEngine()
    registry = MetricsRegistry()
    instruments = EngineInstruments(registry)
    engine.set_observer(instruments.on_event)
    fired = []
    for t in (1.0, 2.0, 5.0):
        engine.schedule_at(t, lambda t=t: fired.append(t))
    engine.run(until=10.0)
    assert len(fired) == 3
    assert registry.value("repro_engine_events_total") == 3.0
    gap = registry.get("repro_engine_event_gap_seconds")
    assert gap is not None
    assert gap.labels().count == 2  # n-1 gaps: the first event has none
    assert gap.labels().sum == pytest.approx(4.0)  # (2-1) + (5-2)


# -------------------------------------------- stats migration (satellite)


def test_hardening_stats_accessors_unchanged():
    stats = HardeningStats()
    assert stats.retries_sent == 0
    stats.retries_sent += 1
    stats.quarantines += 2
    assert stats.retries_sent == 1
    assert stats.quarantines == 2
    assert isinstance(stats.retries_sent, int)
    assert set(dataclasses.asdict(stats)) >= {
        "retries_sent",
        "recovery_retries",
        "quarantines",
        "starvation_overrides",
    }


def test_load_stats_accessors_unchanged():
    stats = LoadStats()
    stats.fresh_replies += 3
    stats.busy_replies += 1
    assert stats.fresh_replies == 3
    assert stats.busy_replies == 1
    assert set(dataclasses.asdict(stats)) >= {
        "fresh_replies",
        "degraded_replies",
        "busy_replies",
        "shed_silent",
    }


def test_migrated_stats_export_through_shared_registry(every_stage):
    service, telemetry = every_stage
    stats = service.servers["S1"].hardening_stats
    assert telemetry.registry.value(
        "repro_hardening_retries_sent_total", server="S1"
    ) == stats.retries_sent > 0


# ------------------------------------------------- chaos soak (satellite)


@pytest.mark.chaos
def test_seeded_chaos_run_counts_exempted_checks():
    telemetry = ServiceTelemetry(spans=False, sample_period=15.0)
    outcome = chaos_soak.run_soak(
        "MM", 0, horizon=600.0, telemetry=telemetry
    )
    reg = telemetry.registry
    exempted = reg.value(
        "repro_invariant_checks_total", check="correctness", outcome="exempted"
    )
    checked = reg.value(
        "repro_invariant_checks_total", check="correctness", outcome="checked"
    )
    assert exempted > 0  # the storm tainted servers and the monitor skipped them
    assert checked > 0
    assert exempted == outcome.exemptions
    assert (
        reg.value(
            "repro_invariant_checks_total",
            check="correctness",
            outcome="violated",
        )
        == outcome.violations
        == 0
    )


# -------------------------------------------------------------- dashboard


def test_dashboard_renders_counts_and_bounds(instrumented):
    _, service, telemetry = instrumented
    frame = render_dashboard(service, telemetry)
    assert "repro top" in frame
    for name in service.servers:
        assert name in frame
    assert "Theorem 7" in frame
    assert "BREACH" not in frame
    assert "\x1b" not in frame  # no ANSI without clear=True
    assert render_dashboard(service, telemetry, clear=True).startswith("\x1b")


def test_run_top_emits_one_frame_per_refresh():
    telemetry = ServiceTelemetry(sample_period=30.0)
    specs = [ServerSpec(f"S{k + 1}", delta=1e-5) for k in range(3)]
    service = build_service(
        full_mesh(3), specs, policy=None, tau=60.0, seed=0, telemetry=telemetry
    )
    frames = []
    count = run_top(
        service,
        telemetry,
        horizon=300.0,
        refresh=100.0,
        interactive=False,
        emit=frames.append,
    )
    assert count == len(frames) == 3
    assert service.engine.now == pytest.approx(300.0)
    with pytest.raises(ValueError):
        run_top(service, telemetry, horizon=400.0, refresh=0.0)

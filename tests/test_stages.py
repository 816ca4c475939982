"""The one server and its stages: structure, order, composition.

* *Structure* — no class in ``src/repro`` extends :class:`TimeServer`
  beyond a constructor, the server has no ``__getattr__``, and a
  stage-less server carries no instance-level dispatcher (the zero-cost
  guarantee).
* *Order* — the hook table is the single source: before-hooks run last
  stage first, after-hooks first stage first, and ``DESIGN.md`` carries
  the rendered table.
* *Composition* — every ``(ServerSpec flags, build_service configs)``
  combination attaches every stage asked for, each stage does work, and
  the composed servers hold the strict oracle through a blackout, a
  crash/warm restart, a tamper burst and a client burst.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import networkx as nx
import pytest

from repro import cli
from repro.byzantine import (
    ByzantineStage,
    FaultBudgetConfig,
    FaultBudgetController,
)
from repro.clocks.drift import DriftingClock
from repro.clocks.slewing import SlewingClock
from repro.core.ft_im import FTIMPolicy
from repro.core.mm import MMPolicy
from repro.experiments import harness
from repro.faults import FaultSchedule
from repro.faults.schedule import MessageTamper, ReferenceBlackout, ServerCrash
from repro.holdover import HoldoverConfig, HoldoverStage
from repro.load import CapacityConfig, FlashCrowdProfile, LoadStage, WorkloadGenerator
from repro.network.delay import UniformDelay
from repro.network.topology import full_mesh
from repro.recovery import SelfStabilizingRecovery, StabilizingStage
from repro.security import Keyring, SecurityConfig, SecurityStage
from repro.service import builder as builder_module
from repro.service.builder import ServerSpec, build_service
from repro.service.discipline import DisciplineStage
from repro.service.hardening import HardeningConfig, HardeningStage, PeerHealth
from repro.service.rate_tracking import RateTrackingStage
from repro.service.server import HOOKS, SlewRail, Stage, TimeServer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

STAGES = (
    RateTrackingStage,
    StabilizingStage,
    DisciplineStage,
    PeerHealth,
    ByzantineStage,
    HoldoverStage,
    HardeningStage,
    SecurityStage,
    SlewRail,
    LoadStage,
)


def implementers() -> dict:
    """Stage class names by hook name, in builder order."""
    return {
        hook.name: [cls.__name__ for cls in STAGES if hasattr(cls, hook.name)]
        for hook in HOOKS
    }


def render_hook_table() -> str:
    """``HOOKS`` as the markdown table ``DESIGN.md`` §2.1 carries."""
    lines = [
        "| stage method | server method | rule | runs | implemented by |",
        "| --- | --- | --- | --- | --- |",
    ]
    table = implementers()
    for hook in HOOKS:
        runs = (
            "before the base, last stage first"
            if hook.when == "before"
            else "after the base, first stage first"
        )
        lines.append(
            f"| `{hook.name}` | `{hook.method}` | {hook.rule} | {runs} "
            f"| {', '.join(table[hook.name])} |"
        )
    return "\n".join(lines)


# ------------------------------------------------------------------ structure


class TestStructure:
    def test_nothing_extends_the_server_beyond_a_constructor(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ClassDef):
                    continue
                bases = {
                    base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                    for base in node.bases
                }
                if "TimeServer" not in bases:
                    continue
                methods = [
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
                if methods != ["__init__"]:
                    offenders.append((path.name, node.name, methods))
        assert offenders == []

    def test_the_server_has_no_attribute_fallback(self):
        # Its mere presence costs every ``self.x`` the fast path.
        assert "__getattr__" not in vars(TimeServer)
        assert "__getattribute__" not in vars(TimeServer)

    def test_a_stageless_server_binds_no_dispatcher(self):
        service = build_service(full_mesh(2), _specs(2), policy=MMPolicy())
        for server in service.servers.values():
            assert server.stages == ()
            hooked = {hook.method for hook in HOOKS} & set(vars(server))
            assert hooked == set()

    def test_only_implemented_hooks_are_bound(self):
        service = build_service(
            full_mesh(2), _specs(2), policy=MMPolicy(), hardening=HardeningConfig()
        )
        server = service.servers["S1"]
        bound = {hook.method for hook in HOOKS} & set(vars(server))
        expected = {
            hook.method
            for hook in HOOKS
            if any(hasattr(stage, hook.name) for stage in server.stages)
        }
        assert bound == expected
        assert "_apply_reset" not in bound and "on_message" not in bound
        # A sole implementer of a no-op hook is bound directly: no frame.
        hardening = server.stage(HardeningStage)
        assert server._observe_reply == hardening._observe_reply

    def test_every_hook_is_implemented_and_every_stage_method_is_a_hook(self):
        table = implementers()
        assert [name for name, stages in table.items() if not stages] == []
        # Anything a stage defines with a hook-shaped name must be in the
        # table, or the server would silently never call it.
        hook_names = set(table)
        server_methods = {hook.method for hook in HOOKS}
        for cls in STAGES:
            for name in vars(cls):
                if name.startswith(("before_", "after_")) or name in server_methods:
                    assert name in hook_names, (cls.__name__, name)

    def test_the_builder_has_no_class_chain(self):
        source = Path(builder_module.__file__).read_text()
        assert "server_class" not in source
        tree = ast.parse(source)
        build = next(
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "build_service"
        )
        # Which stages a server gets is one table: each is named once.
        named = [
            node.id
            for node in ast.walk(build)
            if isinstance(node, ast.Name) and node.id.endswith("Stage")
        ]
        assert sorted(named) == sorted(set(named))
        assert not any("elif spec." in line for line in source.splitlines())


# ---------------------------------------------------------------------- order


class Recorder(Stage):
    """Implements one before-fold, one after-notify and one veto hook."""

    def __init__(self, tag: str, log: list) -> None:
        self.tag = tag
        self.log = log

    def before_inconsistency(self, conflicting):
        self.log.append(("before", self.tag))
        return conflicting + (self.tag,)

    def before_reset(self, decision, kind):
        self.log.append(("veto?", self.tag))
        return False

    def after_reset(self, decision, kind):
        self.log.append(("after", self.tag))

    def _observe_reply(self, reply, rtt_local, local_now):
        self.log.append(("observe", self.tag))


class TestOrder:
    def _server(self, log, inner=Recorder):
        service = build_service(full_mesh(2), _specs(2), policy=MMPolicy(), start=False)
        return TimeServer(
            service.engine,
            "S1",
            DriftingClock(0.0),
            1e-5,
            service.network,
            MMPolicy(),
            30.0,
            trace=service.trace,
            stages=[inner("inner", log), Recorder("outer", log)],
        )

    def test_before_hooks_run_last_first_and_after_hooks_first_last(self):
        from repro.core.sync import ResetDecision

        log: list = []
        server = self._server(log)
        server._last_reset_value = 0.0
        server._apply_reset(ResetDecision(0.0, 0.01, "X"), kind="sync")
        assert log == [
            ("veto?", "outer"),
            ("veto?", "inner"),
            ("after", "inner"),
            ("after", "outer"),
        ]
        assert server.stats.resets == 1  # the base ran in between
        del log[:]
        server._note_inconsistency(("S2",))
        assert log == [("before", "outer"), ("before", "inner")]
        row = [r for r in server.trace if r.kind == "inconsistent"][-1]
        assert row.data["conflicting"] == "S2,outer,inner"
        del log[:]
        server._observe_reply(None, 0.0, 0.0)
        assert log == [("observe", "inner"), ("observe", "outer")]

    def test_a_veto_skips_the_base_and_every_after_hook(self):
        from repro.core.sync import ResetDecision

        class Refuser(Recorder):
            def before_reset(self, decision, kind):
                return True

        log: list = []
        server = self._server(log, inner=Refuser)
        server._apply_reset(ResetDecision(5.0, 0.01, "X"), "sync")
        assert server.stats.resets == 0
        assert ("after", "inner") not in log and ("after", "outer") not in log

    def test_design_md_carries_the_hook_table(self):
        design = (ROOT / "DESIGN.md").read_text()
        assert render_hook_table() in design

    def test_design_md_carries_the_builders_stage_table(self):
        design = (ROOT / "DESIGN.md").read_text()
        section = design.split("flag → stage list", 1)[1]
        listed = re.findall(r"^\| \d+ \| `(\w+)` \|", section, flags=re.M)
        assert listed == [cls.__name__ for cls in STAGES]
        # ... and that is the order the builder really attaches them in.
        service = _composed("holdover", capacity=True, hardening=True, security=True)
        attached = [type(stage) for stage in service.servers["S2"].stages]
        assert attached == [cls for cls in STAGES if cls is not ByzantineStage]


# ---------------------------------------------------------------- composition


def _specs(n, **flags):
    return [
        ServerSpec(f"S{k + 1}", delta=1e-4, skew=(k - n / 2) * 2e-5, initial_error=0.1, **flags)
        for k in range(n)
    ]


def _ftim(name):
    return FTIMPolicy(
        fault_budget=FaultBudgetController(FaultBudgetConfig(initial=1, minimum=1))
    )


def _composed(flags, *, capacity=False, hardening=False, security=False):
    """A full mesh of four whose first server is a reference and whose
    others all carry ``flags`` (space-separated ``ServerSpec`` flag
    names) plus the requested service-wide configs."""
    flags = dict.fromkeys(flags.split(), True)
    byzantine = "byzantine_tolerant" in flags
    stabilizing = bool(flags.keys() & {"self_stabilizing", "byzantine_tolerant", "holdover"})
    specs = [ServerSpec("S1", reference=True, initial_error=0.005)] + _specs(4, **flags)[1:]
    return build_service(
        full_mesh(4),
        specs,
        policy=None if byzantine else MMPolicy(),
        policy_factory=_ftim if byzantine else None,
        tau=10.0,
        seed=1,
        lan_delay=UniformDelay(0.01),
        recovery_factory=(lambda name: SelfStabilizingRecovery()) if stabilizing else None,
        capacity=CapacityConfig(service_time=0.001, degraded_time=0.0005) if capacity else None,
        hardening=HardeningConfig() if hardening else None,
        security=SecurityConfig(keyring=Keyring.from_secret("stages")) if security else None,
        holdover=HoldoverConfig(no_source_window=40.0, trust_horizon=400.0, reintegrate_rounds=2),
    )


#: flags, configs, the stages a polling server must then carry.
DROPPED_AT_THE_PARENT = [
    ("holdover", dict(security=True), (HoldoverStage, SecurityStage)),
    ("discipline", dict(security=True), (DisciplineStage, SecurityStage)),
    ("self_stabilizing", dict(security=True), (StabilizingStage, SecurityStage)),
    ("rate_tracking", dict(security=True), (RateTrackingStage, SecurityStage)),
    ("holdover", dict(hardening=True), (HoldoverStage, HardeningStage)),
    ("rate_tracking", dict(hardening=True), (RateTrackingStage, HardeningStage)),
    ("byzantine_tolerant", dict(hardening=True), (ByzantineStage, HardeningStage)),
    ("discipline self_stabilizing", {}, (DisciplineStage, StabilizingStage)),
    ("", dict(capacity=True, hardening=True), (LoadStage, HardeningStage)),
    ("rate_tracking", dict(capacity=True), (LoadStage, RateTrackingStage)),
    ("self_stabilizing", dict(capacity=True), (LoadStage, StabilizingStage)),
    ("byzantine_tolerant", dict(capacity=True), (LoadStage, ByzantineStage)),
    ("holdover", dict(capacity=True, security=True), (LoadStage, HoldoverStage, SecurityStage)),
]


class TestNothingIsDropped:
    @pytest.mark.parametrize(
        "flags,configs,wanted",
        DROPPED_AT_THE_PARENT,
        ids=["+".join([*flags.split(), *cfg]) for flags, cfg, _ in DROPPED_AT_THE_PARENT],
    )
    def test_every_requested_stage_is_attached_and_works(self, flags, configs, wanted):
        service = _composed(flags, **configs)
        service.run_until(150.0)
        assert service.snapshot().all_correct
        reference = service.servers["S1"]
        for name in ("S2", "S3", "S4"):
            server = service.servers[name]
            for cls in wanted:
                assert server.stage(cls) is not None, (name, cls.__name__)
            assert server.stats.replies_handled > 0
            if configs.get("security"):
                # Signed both ways and verified: nothing was refused,
                # the (now signing) reference included.
                assert server.authenticator.signed > 0
                assert server.security_stats.auth_failures == 0
                assert server.stats.invalid_replies == 0
                assert reference.stage(SecurityStage) is not None
                assert "S1" in server._last_reports
            if server.stage(StabilizingStage) is not None:
                assert service.stable_store.read(name) is not None
            if DisciplineStage in wanted and StabilizingStage in wanted:
                assert service.stable_store.read(name).discipline
            if configs.get("capacity"):
                served = server.queue.stats.total(server.queue.stats.served)
                assert served >= server.stats.requests_answered > 0
            if configs.get("hardening"):
                assert server.health  # replies were scored
        # Reference servers keep the paper's infinite capacity and have
        # no replies to harden against.
        assert reference.stage(LoadStage) is None
        assert reference.stage(HardeningStage) is None

    def test_hardening_and_byzantine_share_one_health_book(self):
        service = _composed("byzantine_tolerant", hardening=True)
        server = service.servers["S2"]
        book = server.stage(PeerHealth)
        assert server.stage(HardeningStage).peers is book
        assert server.stage(ByzantineStage).peers is book
        assert server.health is book.health
        # The MM-1 growth clamp keeps strike state: exactly one stage runs it.
        assert server.stage(ByzantineStage).byzantine.error_physics
        assert not server.stage(HardeningStage).hardening.error_physics

    def test_cli_authenticated_holdover_reports_signed_traffic(self, capsys):
        code = cli.main(
            [
                "simulate", "--topology", "star", "--servers", "4",
                "--reference", "1", "--authenticated", "--holdover",
                "--hours", "0.25", "--report",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        match = re.search(r"security: 4 authenticated servers, (\d+) messages signed, 0 auth", out)
        assert match and int(match.group(1)) > 0


class TestSlewHonesty:
    def test_any_server_on_a_slewing_clock_stays_correct_while_it_drains(self):
        """Theorem 1 through a slew: the rail is derived from the clock,
        so a plain MM server handed a SlewingClock is as honest as a
        holdover one."""
        specs = [
            ServerSpec("S1", reference=True),
            ServerSpec(
                "S2",
                delta=1e-4,
                initial_error=0.5,
                clock_factory=lambda rng, name: SlewingClock(
                    DriftingClock(5e-5, initial=0.3),
                    slew_rate=0.005,
                    panic_threshold=10.0,
                    sanity_bound=1000.0,
                ),
            ),
        ]
        service = build_service(full_mesh(2), specs, policy=MMPolicy(), tau=10.0)
        assert [type(s) for s in service.servers["S2"].stages] == [SlewRail]
        for k in range(1, 241):
            service.run_until(0.5 * k)
            assert service.snapshot().correct["S2"], f"incorrect at t={0.5 * k}"
        assert service.servers["S2"].clock.slewed_out != 0.0

    def test_rate_tracking_discounts_slewed_corrections(self):
        specs = [
            ServerSpec("S1", reference=True),
            ServerSpec(
                "S2",
                delta=1e-4,
                initial_error=0.5,
                rate_tracking=True,
                clock_factory=lambda rng, name: SlewingClock(
                    DriftingClock(5e-5, initial=0.3),
                    slew_rate=0.005,
                    panic_threshold=10.0,
                    sanity_bound=1000.0,
                ),
            ),
        ]
        service = build_service(full_mesh(2), specs, policy=MMPolicy(), tau=10.0)
        service.run_until(300.0)
        server = service.servers["S2"]
        assert server.clock.slewed_out != 0.0
        # The raw timescale is the free-running oscillator: 0.3 s initial
        # offset and 5e-5 skew, whatever the slew has bled in since.
        assert server.stage(RateTrackingStage).raw_clock_value == pytest.approx(
            0.3 + 300.0 * (1 + 5e-5), abs=1e-6
        )


def _crowd(service, client_name, servers, *, start, end, rate=150.0):
    client = service.add_client(client_name, timeout=1.0)
    client.start()
    generator = WorkloadGenerator(
        service.engine,
        f"load/{client_name}",
        client,
        servers,
        FlashCrowdProfile(base_rate=1.0, crowd_rate=rate, crowd_start=start, crowd_end=end),
        service.rng.stream(f"workload/{client_name}"),
        stop_at=end + 20.0,
    )
    generator.start()
    return client


class TestCompositionUnderTheStrictOracle:
    """Everything at once, held to the invariants with no exemptions."""

    HORIZON = 700.0

    def _schedule(self):
        return (
            FaultSchedule()
            .add(MessageTamper(at=120.0, a="S1", b="S2", offset=0.3, duration=60.0))
            .add(ServerCrash(at=200.0, server="S3", downtime=60.0, rejoin_error=2.0))
            .add(ReferenceBlackout(at=330.0, duration=150.0, servers=("S1",)))
        )

    def _run(self, service):
        _, oracle = harness.attach_strict(service, self._schedule(), period=2.0)
        client = _crowd(service, "C1", ["S2", "S3", "S4"], start=560.0, end=600.0)
        service.run_until(self.HORIZON)
        assert oracle.stats.correctness_violations == 0
        assert oracle.stats.consistency_violations == 0
        assert len(client.results) > 100
        assert all(result.correct for result in client.results)
        return oracle

    def test_load_security_hardening_holdover(self):
        graph = nx.star_graph(3)
        graph = nx.relabel_nodes(graph, {0: "S1", 1: "S2", 2: "S3", 3: "S4"})
        graph.add_edges_from([("C1", "S2"), ("C1", "S3"), ("C1", "S4")])
        specs = [ServerSpec("S1", reference=True, initial_error=0.005)] + [
            ServerSpec(name, delta=1e-4, skew=skew, initial_error=0.1, holdover=True)
            for name, skew in (("S2", 4e-5), ("S3", -3e-5), ("S4", 2e-5))
        ]
        service = build_service(
            graph,
            specs,
            policy=MMPolicy(),
            tau=10.0,
            seed=7,
            lan_delay=UniformDelay(0.01),
            recovery_factory=lambda name: SelfStabilizingRecovery(),
            capacity=CapacityConfig(service_time=0.001, degraded_time=0.0005),
            hardening=HardeningConfig(),
            security=SecurityConfig(keyring=Keyring.from_secret("composed")),
            holdover=HoldoverConfig(
                no_source_window=40.0, trust_horizon=400.0, reintegrate_rounds=2
            ),
        )
        self._run(service)
        leaves = [service.servers[name] for name in ("S2", "S3", "S4")]
        for server in leaves:
            assert [type(stage) for stage in server.stages] == [
                cls for cls in STAGES if cls is not ByzantineStage
            ]
            # Every stage's own counter moved.
            assert server.rate_reports()
            assert service.stable_store.read(server.name).discipline
            assert server.health["S1"].timeouts > 0  # the blackout
            assert server.holdover_stats.holdover_entries > 0
            assert server.holdover_stats.reintegrations > 0
            assert server.hardening_stats.retries_sent > 0
            assert server.authenticator.signed > 0
            assert server.clock.slewed_out != 0.0
            assert server.load_stats.fresh_replies > 0
        assert service.servers["S2"].security_stats.auth_failures > 0  # the tamper
        assert service.servers["S3"].restart_reports[0].warm
        assert service.servers["S3"].restart_reports[0].correct

    def test_load_security_byzantine(self):
        graph = full_mesh(5)
        graph.add_edges_from([("C1", "S2"), ("C1", "S3"), ("C1", "S4")])
        specs = [ServerSpec("S1", reference=True, initial_error=0.005)] + [
            ServerSpec(
                f"S{k}", delta=1e-4, skew=(k - 3.5) * 2e-5, initial_error=0.1,
                byzantine_tolerant=True,
            )
            for k in range(2, 6)
        ]
        service = build_service(
            graph,
            specs,
            policy_factory=_ftim,
            tau=10.0,
            seed=7,
            lan_delay=UniformDelay(0.01),
            recovery_factory=lambda name: SelfStabilizingRecovery(),
            capacity=CapacityConfig(service_time=0.001, degraded_time=0.0005),
            security=SecurityConfig(keyring=Keyring.from_secret("composed")),
        )
        self._run(service)
        for name in ("S2", "S3", "S4", "S5"):
            server = service.servers[name]
            assert [type(stage) for stage in server.stages] == [
                RateTrackingStage, StabilizingStage, PeerHealth, ByzantineStage,
                SecurityStage, LoadStage,
            ]
            assert server.rate_reports()
            assert service.stable_store.read(name).reputation
            assert server.byzantine_stats.tolerant_rounds > 0
            assert server.health["S1"].timeouts > 0  # the blackout
            assert server.authenticator.signed > 0
            assert server.queue.stats.total(server.queue.stats.served) > 0
        victim = service.servers["S2"]
        assert victim.security_stats.auth_failures > 0  # the tamper...
        assert victim.reputation.record("S1").validation_failures > 0  # ...as evidence
        assert service.servers["S3"].restart_reports[0].warm
        assert service.servers["S3"].restart_reports[0].correct

"""Service assembly: declarative construction of a whole simulated service.

Experiments and examples describe a service as a topology plus a list of
:class:`ServerSpec` rows; :func:`build_service` wires up the engine, RNG
streams, network, clocks, servers and trace, returning a
:class:`SimulatedService` façade with the sampling helpers every experiment
needs (snapshots, error/asynchronism metrics, grid sampling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import networkx as nx

from ..byzantine.server import ByzantineConfig, ByzantineStage
from ..clocks.base import Clock
from ..clocks.disciplined import DisciplinedClock
from ..clocks.drift import DriftingClock
from ..clocks.slewing import SlewingClock
from ..core.intervals import TimeInterval, intersect_all
from ..core.recovery import RecoveryStrategy
from ..core.sync import SynchronizationPolicy
from ..holdover.controller import HoldoverConfig
from ..holdover.server import HoldoverStage
from ..load.capacity import CapacityConfig
from ..load.client import ResilienceConfig, ResilientTimeClient
from ..load.server import LoadPolicy, LoadStage
from ..network.delay import DelayModel, UniformDelay
from ..network.transport import Network
from ..recovery.server import StabilizingStage
from ..recovery.stabilizer import StabilizerConfig
from ..recovery.store import StableStore
from ..simulation.engine import SimulationEngine
from ..simulation.rng import RngRegistry
from ..simulation.trace import TraceRecorder
from ..telemetry.instruments import NULL_SERVICE_TELEMETRY, ServiceTelemetry
from .client import TimeClient
from .discipline import DisciplineStage
from .hardening import HardeningConfig, HardeningStage, PeerHealth
from .rate_tracking import RateTrackingStage
from .reference import ReferenceServer
from .server import SlewRail, Stage, TimeServer

if TYPE_CHECKING:  # repro.security imports this package
    from ..security.server import SecurityConfig

#: Builds a clock for a server, given the registry and the server's name
#: (so stochastic clocks can claim a dedicated stream).
ClockFactory = Callable[[RngRegistry, str], Clock]

#: Builds a per-server policy (factories allow per-server ablation flags).
PolicyFactory = Callable[[str], Optional[SynchronizationPolicy]]

#: Builds a per-server recovery strategy.
RecoveryFactory = Callable[[str], Optional[RecoveryStrategy]]


@dataclass(frozen=True)
class ServerSpec:
    """Declarative description of one server.

    Attributes:
        name: Topology node name.
        delta: Claimed maximum drift rate ``δ_i``.
        skew: Shortcut — a constant actual skew; builds a
            :class:`DriftingClock`.  Ignored when ``clock_factory`` is set.
        clock_factory: Full control over the clock construction.
        initial_error: ``ε_i`` at start.
        reference: Build a :class:`ReferenceServer` instead (answer-only,
            perfect clock); ``initial_error`` becomes the receiver error.
        polls: Whether the server runs synchronization rounds (reference
            servers never do).
        rate_tracking: Attach a
            :class:`~repro.service.rate_tracking.RateTrackingStage`
            (Section 5 consonance machinery).
        discipline: Wrap the clock in a
            :class:`~repro.clocks.disciplined.DisciplinedClock` and attach
            a :class:`~repro.service.discipline.DisciplineStage` that
            trims the server's own frequency from the measured neighbour
            rates (implies ``rate_tracking``).
        self_stabilizing: Attach a
            :class:`~repro.recovery.server.StabilizingStage`
            (checkpointing, consistency census, merge epochs — implies
            ``rate_tracking``); all such servers share the service's
            :class:`~repro.recovery.store.StableStore`.
        byzantine_tolerant: Attach a
            :class:`~repro.byzantine.server.ByzantineStage`
            (implies ``self_stabilizing``); pair it with an
            :class:`~repro.core.ft_im.FTIMPolicy` via ``policy_factory``
            to get classification-driven reputation.
        holdover: Attach a :class:`~repro.holdover.server.HoldoverStage`
            (implies ``discipline`` and ``self_stabilizing``): the clock
            is stacked as a :class:`~repro.clocks.slewing.SlewingClock`
            over a :class:`DisciplinedClock`, and the server runs the
            SYNCED → HOLDOVER → DEGRADED → REINTEGRATING machine.  Knobs
            come from ``build_service``'s ``holdover`` config.

    The flags compose: every capability asked for is attached, in the
    fixed order of :func:`build_service`'s stage table (DESIGN.md §2.1).
    """

    name: str
    delta: float = 0.0
    skew: float = 0.0
    clock_factory: Optional[ClockFactory] = None
    initial_error: float = 0.0
    reference: bool = False
    polls: bool = True
    rate_tracking: bool = False
    discipline: bool = False
    self_stabilizing: bool = False
    byzantine_tolerant: bool = False
    holdover: bool = False


@dataclass(frozen=True)
class ServiceSnapshot:
    """Per-server observables at one real time (oracle view included).

    Attributes:
        time: Real time of the snapshot.
        values: ``C_i(t)`` by server name.
        errors: ``E_i(t)`` by server name.
        offsets: ``C_i(t) - t`` by server name (oracle).
        correct: Whether each server's interval contains ``t`` (oracle).
    """

    time: float
    values: Dict[str, float]
    errors: Dict[str, float]
    offsets: Dict[str, float]
    correct: Dict[str, bool]

    def interval(self, name: str) -> TimeInterval:
        """Server ``name``'s interval at snapshot time."""
        return TimeInterval.from_center_error(self.values[name], self.errors[name])

    def intervals(self) -> Dict[str, TimeInterval]:
        """All intervals by name."""
        return {name: self.interval(name) for name in self.values}

    @property
    def min_error(self) -> float:
        """``E_M(t)`` — the smallest error in the service."""
        return min(self.errors.values())

    @property
    def max_error(self) -> float:
        """The largest error in the service."""
        return max(self.errors.values())

    @property
    def asynchronism(self) -> float:
        """``max |C_i - C_j|`` over all server pairs."""
        values = list(self.values.values())
        return max(values) - min(values) if values else 0.0

    @property
    def consistent(self) -> bool:
        """Whether all intervals share a common point (Section 2.3)."""
        return intersect_all(self.intervals().values()) is not None

    @property
    def all_correct(self) -> bool:
        """Oracle: every interval contains the true time."""
        return all(self.correct.values())


class SimulatedService:
    """A fully-wired simulated time service.

    Obtained from :func:`build_service`; exposes the engine, network, and
    servers plus the sampling helpers the experiments are written against.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        network: Network,
        servers: Dict[str, TimeServer],
        rng: RngRegistry,
        trace: TraceRecorder,
        xi: float,
        tau: Optional[float],
        stable_store: Optional[StableStore] = None,
        telemetry: Optional[ServiceTelemetry] = None,
    ) -> None:
        self.engine = engine
        self.network = network
        self.servers = servers
        self.rng = rng
        self.trace = trace
        self.xi = xi
        self.tau = tau
        self.stable_store = stable_store
        self.telemetry = (
            telemetry if telemetry is not None else NULL_SERVICE_TELEMETRY
        )
        self.clients: List[TimeClient] = []

    # --------------------------------------------------------------- control

    def start(self) -> None:
        """Start every server (and client) that is not yet running."""
        for server in self.servers.values():
            server.start()
        for client in self.clients:
            client.start()

    def run_until(self, time: float) -> None:
        """Advance the simulation to absolute real time ``time``."""
        self.engine.advance_to(time)

    def add_client(
        self,
        name: str,
        *,
        clock: Optional[Clock] = None,
        delta: float = 0.0,
        timeout: float = 1.0,
        resilience: Optional[ResilienceConfig] = None,
    ) -> TimeClient:
        """Create, register and return a client occupying node ``name``.

        With ``resilience`` set the client is a
        :class:`~repro.load.client.ResilientTimeClient` (retries, circuit
        breakers, hedging) drawing its backoff jitter from the service's
        RNG registry; otherwise a plain :class:`TimeClient`.
        """
        if resilience is not None:
            client: TimeClient = ResilientTimeClient(
                self.engine,
                name,
                self.network,
                clock=clock,
                delta=delta,
                timeout=timeout,
                resilience=resilience,
                rng=self.rng.stream(f"client/{name}"),
            )
        else:
            client = TimeClient(
                self.engine,
                name,
                self.network,
                clock=clock,
                delta=delta,
                timeout=timeout,
            )
        self.network.register(client)
        self.clients.append(client)
        return client

    # -------------------------------------------------------------- sampling

    def snapshot(self) -> ServiceSnapshot:
        """Observe every server now (advancing nothing)."""
        t = self.engine.now
        values: Dict[str, float] = {}
        errors: Dict[str, float] = {}
        offsets: Dict[str, float] = {}
        correct: Dict[str, bool] = {}
        for name, server in self.servers.items():
            value, error = server.report()
            values[name] = value
            errors[name] = error
            offsets[name] = value - t
            correct[name] = (value - error) <= t <= (value + error)
        return ServiceSnapshot(
            time=t, values=values, errors=errors, offsets=offsets, correct=correct
        )

    def sample(self, times: Sequence[float]) -> List[ServiceSnapshot]:
        """Advance through ``times`` (ascending), snapshotting at each."""
        snapshots = []
        for t in times:
            self.run_until(t)
            snapshots.append(self.snapshot())
        return snapshots

    def server_names(self, polling_only: bool = False) -> List[str]:
        """Sorted server names, optionally restricted to polling servers."""
        names = []
        for name, server in sorted(self.servers.items()):
            if polling_only and server.policy is None:
                continue
            names.append(name)
        return names


def poll_phase(tau: float, k: int, n: int) -> float:
    """First poll time of the ``k``-th of ``n`` polling servers (sorted by
    name): ``(k + 1) / (n + 1)`` of a period, spreading rounds evenly
    across τ.  The heap engine and the kernel plan both stagger with it."""
    return tau * (k + 1) / (n + 1)


def stages_for(
    spec: ServerSpec,
    clock: Optional[Clock],
    polls: bool,
    rng: RngRegistry,
    *,
    hardening: Optional[HardeningConfig] = None,
    byzantine: Optional[ByzantineConfig] = None,
    security: Optional[SecurityConfig] = None,
    stabilizer: Optional[StabilizerConfig] = None,
    stable_store: Optional[StableStore] = None,
    holdover: Optional[HoldoverConfig] = None,
    capacity: Optional[CapacityConfig] = None,
    load_policy: Optional[LoadPolicy] = None,
) -> List[Stage]:
    """The one table from a spec's flags and the service's configs to
    the server's ordered stage list (first = innermost), for both
    planes: :func:`build_service` and the live node both call it.

    Every capability asked for is attached; none excludes another.
    Read backwards the list is a message's path through the server —
    admission/capacity, authentication/replay/delay guard, reply
    validation + peer health, then the feedback layers — except
    where the class tower this replaced fixed an order that trace
    digests or ``metrics.prom`` depend on (rate tracking inside
    stabilisation inside discipline inside holdover; hardening's
    counter families registered before security's).

    ``spec`` gives the name and flags, ``clock`` (None for a reference
    server) whether a slew rail is owed, ``polls`` whether there are
    replies to harden against, ``rng`` the jitter and shedding streams;
    the keywords are :func:`build_service`'s configs of the same names,
    plus the ``stable_store`` self-stabilising servers share.
    """
    if spec.reference:
        # Answer-only on a perfect clock: nothing to track, steer or
        # checkpoint, whatever else the row says.
        spec = ServerSpec(spec.name, reference=True)
    stabilizing = spec.self_stabilizing or spec.byzantine_tolerant or spec.holdover
    disciplined = spec.discipline or spec.holdover
    tracking = spec.rate_tracking or disciplined or stabilizing
    if security is not None:
        # Imported here: repro.security imports this package.
        from ..security.server import SecurityStage

        if hardening is None and not tracking:
            # The guards' rejections need a peer-health book to land in.
            hardening = HardeningConfig()
    hardened = polls and hardening is not None
    quarantine = hardening.quarantine if hardened else None
    if spec.byzantine_tolerant:
        byzantine = byzantine if byzantine is not None else ByzantineConfig()
        quarantine = byzantine.quarantine
    table = (
        (tracking, RateTrackingStage),
        (stabilizing, lambda: StabilizingStage(stable_store, stabilizer)),
        (disciplined, DisciplineStage),
        (
            hardened or spec.byzantine_tolerant,
            lambda: PeerHealth(quarantine, hardening),
        ),
        (spec.byzantine_tolerant, lambda: ByzantineStage(byzantine)),
        (spec.holdover, lambda: HoldoverStage(holdover)),
        (
            hardened,
            lambda: HardeningStage(hardening, rng.stream(f"hardening/{spec.name}")),
        ),
        (security is not None, lambda: SecurityStage(security)),
        # Derived from the clock, not selected: whoever drains resets
        # gradually owes ε the pending remainder.  Behind every stage
        # that checkpoints or gates a reset, ahead of the load stage's
        # report cache.
        (hasattr(clock, "slew_remaining"), SlewRail),
        (
            capacity is not None and not spec.reference,
            lambda: LoadStage(capacity, load_policy, rng.stream(f"load/{spec.name}")),
        ),
    )
    return [build() for wanted, build in table if wanted]


def build_service(
    graph: nx.Graph,
    specs: Sequence[ServerSpec],
    *,
    policy: Optional[SynchronizationPolicy] = None,
    policy_factory: Optional[PolicyFactory] = None,
    tau: float = 60.0,
    seed: int = 0,
    lan_delay: Optional[DelayModel] = None,
    wan_delay: Optional[DelayModel] = None,
    long_haul: Optional[DelayModel] = None,
    loss_probability: float = 0.0,
    recovery_factory: Optional[RecoveryFactory] = None,
    round_timeout: Optional[float] = None,
    trace_enabled: bool = True,
    start: bool = True,
    stagger_polls: bool = True,
    hardening: Optional[HardeningConfig] = None,
    stabilizer: Optional[StabilizerConfig] = None,
    byzantine: Optional[ByzantineConfig] = None,
    capacity: Optional[CapacityConfig] = None,
    load_policy: Optional[LoadPolicy] = None,
    telemetry: Optional[ServiceTelemetry] = None,
    holdover: Optional[HoldoverConfig] = None,
    security: Optional[SecurityConfig] = None,
) -> SimulatedService:
    """Assemble a :class:`SimulatedService`.

    Args:
        graph: The service topology; every spec's name must be a node.
        specs: One :class:`ServerSpec` per server.
        policy: Shared synchronization policy for all polling servers
            (mutually exclusive with ``policy_factory``).
        policy_factory: Per-server policy construction.
        tau: Poll period τ.
        seed: Root seed for all randomness.
        lan_delay: Delay model for ordinary edges (default: uniform 0–50 ms,
            i.e. ξ = 0.1 s for a symmetric round trip).
        wan_delay: Delay model for ``kind="wan"`` edges.
        long_haul: Delay model enabling non-adjacent (other-network) sends.
        loss_probability: Per-message loss on every link.
        recovery_factory: Per-server recovery strategy construction.
        round_timeout: Override the servers' round timeout.
        trace_enabled: Record trace rows (disable for big sweeps).
        start: Start all servers immediately.
        stagger_polls: Give each server a deterministic phase offset so
            rounds do not all fire at the same instant.
        hardening: When set, every polling server carries a
            :class:`~repro.service.hardening.HardeningStage` with this
            configuration (reply validation, retries, adaptive timeouts,
            neighbour quarantine).  Answer-only servers have no replies
            to harden against and are unaffected.
        stabilizer: Recovery-subsystem knobs for servers with
            ``self_stabilizing=True`` (checkpoint cadence, census
            horizon, merge hysteresis); None uses
            :class:`~repro.recovery.stabilizer.StabilizerConfig` defaults.
        byzantine: Tolerance-layer knobs for servers with
            ``byzantine_tolerant=True`` (reputation, demotion); None uses
            :class:`~repro.byzantine.server.ByzantineConfig` defaults.
        capacity: When set, every non-reference server carries a
            :class:`~repro.load.server.LoadStage` with this
            service-time/queue model — requests cost simulated CPU and
            may be shed.  Reference servers keep the paper's infinite
            capacity.
        load_policy: Overload defences for capacity-model servers
            (admission bucket, shedding policy, degraded mode); None
            uses :class:`~repro.load.server.LoadPolicy` defaults
            (everything on).
        telemetry: A :class:`~repro.telemetry.instruments.ServiceTelemetry`
            bundle to wire through every layer (per-server counters and
            spans, the engine observer, the periodic gauge sampler); None
            disables telemetry at zero hot-path cost.
        holdover: Holdover/safety-rail knobs for servers with
            ``holdover=True`` (no-source window, trust horizon,
            reintegration rounds, slew rate, panic/sanity bounds); None
            uses :class:`~repro.holdover.controller.HoldoverConfig`
            defaults.
        security: When set, every server — reference servers included,
            or their unsigned answers would be refused — carries a
            :class:`~repro.security.server.SecurityStage` sharing this
            config's keyring: signed requests/replies, per-peer replay
            windows, and the delay guard.  A polling server with no
            other capability also gets default hardening (the guards'
            rejections need a peer-health book to land in).

    Returns:
        The wired service (engine at ``t = 0``).

    Raises:
        ValueError: On duplicate/missing names or conflicting policy args.
        TypeError: When a ``discipline`` spec's clock factory yields a
            clock that is not rate-adjustable.
    """
    if policy is not None and policy_factory is not None:
        raise ValueError("pass either policy or policy_factory, not both")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate server names in specs: {names}")
    missing = [name for name in names if name not in graph]
    if missing:
        raise ValueError(f"specs name servers not in the topology: {missing}")

    engine = SimulationEngine()
    rng = RngRegistry(seed=seed)
    trace = TraceRecorder(enabled=trace_enabled)
    if lan_delay is None:
        lan_delay = UniformDelay(0.05)
    network = Network(
        engine,
        graph,
        rng,
        lan_delay=lan_delay,
        wan_delay=wan_delay,
        loss_probability=loss_probability,
        long_haul=long_haul,
    )

    policies: Dict[str, Optional[SynchronizationPolicy]] = {}
    for spec in specs:
        if spec.reference or not spec.polls:
            policies[spec.name] = None
        elif policy_factory is not None:
            policies[spec.name] = policy_factory(spec.name)
        else:
            policies[spec.name] = policy
    polling_names = [name for name, pol in policies.items() if pol is not None]
    phase: Dict[str, float] = {}
    if stagger_polls:
        for k, name in enumerate(sorted(polling_names)):
            phase[name] = poll_phase(tau, k, len(polling_names))

    service_telemetry = (
        telemetry if telemetry is not None else NULL_SERVICE_TELEMETRY
    )
    servers: Dict[str, TimeServer] = {}
    stable_store: Optional[StableStore] = None
    if any(
        spec.self_stabilizing or spec.byzantine_tolerant or spec.holdover
        for spec in specs
    ):
        stable_store = StableStore()
    holdover_cfg = holdover if holdover is not None else HoldoverConfig()
    for spec in specs:
        server_policy = policies[spec.name]
        clock: Optional[Clock] = None  # a reference server brings its own
        if not spec.reference:
            if spec.clock_factory is not None:
                clock = spec.clock_factory(rng, spec.name)
            else:
                clock = DriftingClock(spec.skew, epoch=0.0, initial=0.0)
            if spec.discipline or spec.holdover:
                clock = DisciplinedClock(clock)
            if spec.holdover:
                clock = SlewingClock(
                    clock,
                    slew_rate=holdover_cfg.slew_rate,
                    panic_threshold=holdover_cfg.panic_threshold,
                    sanity_bound=holdover_cfg.sanity_bound,
                )
        common = dict(
            trace=trace,
            telemetry=service_telemetry.server(spec.name),
            stages=stages_for(
                spec,
                clock,
                server_policy is not None,
                rng,
                hardening=hardening,
                byzantine=byzantine,
                security=security,
                stabilizer=stabilizer,
                stable_store=stable_store,
                holdover=holdover_cfg,
                capacity=capacity,
                load_policy=load_policy,
            ),
        )
        if spec.reference:
            server: TimeServer = ReferenceServer(
                engine,
                spec.name,
                network,
                receiver_error=spec.initial_error,
                **common,
            )
        else:
            server = TimeServer(
                engine,
                spec.name,
                clock,
                spec.delta,
                network,
                policy=server_policy,
                tau=tau if server_policy is not None else None,
                initial_error=spec.initial_error,
                round_timeout=round_timeout,
                recovery=recovery_factory(spec.name) if recovery_factory else None,
                first_poll_at=phase.get(spec.name),
                **common,
            )
        network.register(server)
        servers[spec.name] = server

    service = SimulatedService(
        engine,
        network,
        servers,
        rng,
        trace,
        xi=network.xi,
        tau=tau,
        stable_store=stable_store,
        telemetry=service_telemetry,
    )
    service_telemetry.attach(service)
    if start:
        service.start()
    return service

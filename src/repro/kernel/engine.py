"""The batched round engine behind the ``Scheduler``/``Network`` seams.

Where :class:`~repro.simulation.engine.SimulationEngine` heap-pops one
message at a time, the kernel engine exploits the rigid event structure of
a clean synchronization run — every cycle of length τ contains exactly one
poll round per server: one poll fire, ``k`` request deliveries, ``k`` reply
deliveries — and processes whole cycles as array phases
(:mod:`repro.kernel.shard`): per-cycle numpy phases across all servers of
a shard, per-*server* RNG streams (so digests are invariant under
re-sharding), and Jacobi round semantics (answers are computed from
neighbour state as of the cycle start; see ``docs/kernel.md`` for why that
preserves correctness and where it diverges from the heap engine).

This module validates a :class:`KernelConfig` into the :class:`KernelPlan`
the shards run — the same poll stagger the heap engine's builder uses
(:func:`~repro.service.builder.poll_phase`) — and builds the service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import networkx as nx

from ..core.im import IMPolicy
from ..core.mm import MMPolicy
from ..core.sync import SynchronizationPolicy
from ..network.delay import DelayModel, UniformDelay
from ..service.builder import ServerSpec, poll_phase

__all__ = [
    "KernelConfig",
    "KernelPlan",
    "PolicyFlags",
    "build_kernel_service",
]


@dataclass(frozen=True)
class PolicyFlags:
    """The policy knobs the kernels understand, extracted from MM/IM."""

    kind: str  # "mm" | "im"
    inflate_rtt: bool = True
    strict_improvement: bool = False
    include_self: bool = True
    widen_both_edges: bool = False
    reset_to: str = "midpoint"
    allow_point_intersection: bool = True

    @classmethod
    def of(cls, policy: SynchronizationPolicy) -> "PolicyFlags":
        if isinstance(policy, MMPolicy):
            return cls(
                kind="mm",
                inflate_rtt=policy.inflate_rtt,
                strict_improvement=policy.strict_improvement,
            )
        if isinstance(policy, IMPolicy):
            return cls(
                kind="im",
                include_self=policy.include_self,
                widen_both_edges=policy.widen_both_edges,
                reset_to=policy.reset_to,
                allow_point_intersection=policy.allow_point_intersection,
            )
        raise ValueError(
            f"the kernel engine supports MMPolicy/IMPolicy, got {policy!r}"
        )


@dataclass(frozen=True)
class KernelConfig:
    """Declarative description of a kernel run.

    Mirrors the :func:`~repro.service.builder.build_service` arguments the
    kernel supports; anything it cannot reproduce faithfully is rejected at
    plan time rather than silently approximated.
    """

    graph: nx.Graph
    specs: Sequence[ServerSpec]
    policy: SynchronizationPolicy
    tau: float
    seed: int = 0
    delay: Optional[DelayModel] = None
    trace_enabled: bool = True
    prefetch_cycles: int = 32


@dataclass
class KernelPlan:
    """Validated, precomputed static structure every shard runs."""

    names: List[str]
    index: Dict[str, int]
    phases: List[float]  # per server, builder.poll_phase
    neighbours: List[List[str]]  # sorted, per server
    deltas: List[float]
    skews: List[float]
    initial_errors: List[float]
    flags: PolicyFlags
    tau: float
    seed: int
    delay_min: float
    delay_bound: float
    trace_enabled: bool
    prefetch_cycles: int


def plan_kernel(config: KernelConfig) -> KernelPlan:
    """Validate a config and precompute the static run structure.

    Raises:
        ValueError: On any spec/policy/delay feature the kernel cannot
            reproduce (reference servers, custom clocks, non-uniform delay,
            hardening-style subclasses have no kernel twin).
    """
    flags = PolicyFlags.of(config.policy)
    delay = config.delay if config.delay is not None else UniformDelay(0.05)
    if not isinstance(delay, UniformDelay):
        raise ValueError("the kernel engine models UniformDelay links only")
    if config.tau <= 0:
        raise ValueError(f"tau must be positive, got {config.tau}")
    names = [spec.name for spec in config.specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate server names in specs: {names}")
    missing = [name for name in names if name not in config.graph]
    if missing:
        raise ValueError(f"specs name servers not in the topology: {missing}")
    if set(config.graph.nodes) != set(names):
        raise ValueError("kernel runs need exactly one spec per topology node")
    for spec in config.specs:
        unsupported = [
            flag
            for flag in (
                "reference",
                "rate_tracking",
                "discipline",
                "self_stabilizing",
                "byzantine_tolerant",
                "holdover",
            )
            if getattr(spec, flag)
        ]
        if unsupported or not spec.polls or spec.clock_factory is not None:
            raise ValueError(
                f"spec {spec.name!r} uses features without a kernel twin "
                f"(plain polling DriftingClock servers only)"
            )
        if spec.delta < 0 or spec.initial_error < 0:
            raise ValueError(f"spec {spec.name!r} has negative delta/error")

    ordered = sorted(names)
    index = {name: i for i, name in enumerate(ordered)}
    n = len(ordered)
    # The builder's stagger, then every tau by repeated addition.
    phases = [poll_phase(config.tau, k, n) for k in range(n)]
    by_name = {spec.name: spec for spec in config.specs}
    neighbours = [sorted(config.graph.neighbors(name)) for name in ordered]
    return KernelPlan(
        names=ordered,
        index=index,
        phases=phases,
        neighbours=neighbours,
        deltas=[float(by_name[name].delta) for name in ordered],
        skews=[float(by_name[name].skew) for name in ordered],
        initial_errors=[float(by_name[name].initial_error) for name in ordered],
        flags=flags,
        tau=float(config.tau),
        seed=int(config.seed),
        delay_min=float(delay.minimum),
        delay_bound=float(delay.bound),
        trace_enabled=bool(config.trace_enabled),
        prefetch_cycles=max(1, int(config.prefetch_cycles)),
    )


def build_kernel_service(
    graph: nx.Graph,
    specs: Sequence[ServerSpec],
    *,
    policy: SynchronizationPolicy,
    tau: float,
    seed: int = 0,
    lan_delay: Optional[DelayModel] = None,
    mode: str = "bulk",
    shards: int = 1,
    processes: int = 0,
    trace_enabled: bool = True,
    prefetch_cycles: int = 32,
):
    """Build a kernel service — the batched twin of ``build_service``.

    Args:
        mode: ``"bulk"``, the only mode: vectorized, sharded cycles.
        shards: Number of topology shards.
        processes: Worker processes to spread shards over (0 = in-process;
            at most one per shard is started).

    Returns:
        :class:`~repro.kernel.shard.ShardedKernelService`.
    """
    if mode != "bulk":
        raise ValueError(f"mode must be 'bulk', the only kernel mode, got {mode!r}")
    config = KernelConfig(
        graph=graph,
        specs=specs,
        policy=policy,
        tau=tau,
        seed=seed,
        delay=lan_delay,
        trace_enabled=trace_enabled,
        prefetch_cycles=prefetch_cycles,
    )
    from .shard import ShardedKernelService

    return ShardedKernelService(config, shards=shards, processes=processes)

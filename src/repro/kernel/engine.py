"""The batched round engine behind the ``Scheduler``/``Network`` seams.

Where :class:`~repro.simulation.engine.SimulationEngine` heap-pops one
message at a time, the kernel engine exploits the rigid event structure of
a clean synchronization run — every cycle of length τ contains exactly one
poll round per server: one poll fire, ``k`` request deliveries, ``k`` reply
deliveries — and processes whole rounds as array phases.  Two modes:

* **exact** (:class:`ExactKernelService`) — replays the heap engine's
  chronology bit-for-bit for the restricted configuration it refuses to
  leave (plain :class:`~repro.service.server.TimeServer` rows, MM or IM,
  a shared :class:`~repro.network.delay.UniformDelay`, no loss, staggered
  non-overlapping rounds).  Same per-pair ``net/{src}->{dst}`` RNG streams,
  same float evaluation order, same trace rows: the differential suite
  asserts equal trace digests against the scalar engine.
* **bulk** (:mod:`repro.kernel.shard`) — the scale mode: per-cycle numpy
  phases across all servers of a shard, per-*server* RNG streams (so
  digests are invariant under re-sharding), and Jacobi round semantics
  (answers are computed from neighbour state as of the cycle start; see
  ``docs/kernel.md`` for why that preserves correctness and where it
  diverges from the heap engine).

The exact mode's one structural trick is the request/reply draw-order fixed
point: scalar ``Network.send`` draws each message's delay from the stream of
its *directed pair* at send time.  With non-overlapping rounds the per-cycle
draw order on stream ``i->j`` is closed-form — the request ``i->j`` (at
``t_i``) always precedes the answer ``i->j`` (at ``t_j + r_{j->i}``) when
``t_i < t_j``, and on the opposite stream the order is decided by comparing
the request arrival ``t_i + r_{i->j}`` with ``t_j`` (ties fire the request
first: its delivery event was sequenced earlier) — so the kernel can draw a
whole cycle's delays up front and still consume every stream in the heap
engine's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from ..core.im import IMPolicy
from ..core.mm import MMPolicy
from ..core.sync import SynchronizationPolicy
from ..network.delay import DelayModel, UniformDelay
from ..service.builder import ServerSpec, ServiceSnapshot
from ..service.server import ServerStats
from ..simulation.rng import RngRegistry
from ..simulation.trace import TraceRecorder

__all__ = [
    "KernelConfig",
    "KernelPlan",
    "PolicyFlags",
    "ExactKernelService",
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
    """Declarative description of a kernel run (both modes).

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
    round_timeout: Optional[float] = None
    trace_enabled: bool = True
    prefetch_cycles: int = 32


@dataclass
class KernelPlan:
    """Validated, precomputed static structure shared by both modes."""

    names: List[str]
    index: Dict[str, int]
    phases: List[float]  # per server, builder's stagger formula
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
    # The builder's deterministic stagger: server k polls first at
    # tau * (k + 1) / (n + 1), then every tau by repeated addition.
    phases = [config.tau * (k + 1) / (n + 1) for k in range(n)]
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


# --------------------------------------------------------------------------
# Exact mode


@dataclass
class _ExactServer:
    """Mutable per-server state, mirroring TimeServer + DriftingClock."""

    name: str
    delta: float
    skew: float
    seg_start: float  # clock segment start (real time of last reset)
    seg_value: float  # clock value at segment start
    eps: float  # inherited error ε_i
    r: float  # clock value at last reset, r_i
    poll_t: float  # absolute time of the next poll round
    dests: List[str]
    stats: ServerStats = field(default_factory=ServerStats)

    def read(self, t: float) -> float:
        return self.seg_value + (t - self.seg_start) * (1.0 + self.skew)

    def error_at(self, value: float) -> float:
        return self.eps + max(0.0, value - self.r) * self.delta


@dataclass
class _Round:
    """One drawn-but-unprocessed poll round."""

    server: str
    poll_t: float
    ta: List[float]  # request arrival per destination (dests order)
    tb: List[float]  # reply arrival per destination (dests order)
    close_t: float


class ExactKernelService:
    """Bit-exact batched replay of the scalar engine's clean sync runs.

    The constructor validates that the configuration is inside the regime
    where round-structured replay is exact: every server's round must open
    and close strictly between the neighbouring servers' rounds.  With the
    builder's stagger the phase gap is ``τ/(n+1)`` and a round spans at most
    one round trip, so the requirement is ``2·bound < τ/(n+1)`` (and a round
    timeout beyond ``2·bound``, so no round is ever cut short).
    """

    def __init__(self, config: KernelConfig) -> None:
        self.plan = plan_kernel(config)
        plan = self.plan
        n = len(plan.names)
        phase_gap = plan.tau / (n + 1)
        span = 2.0 * plan.delay_bound
        if span >= phase_gap:
            raise ValueError(
                f"exact mode needs non-overlapping rounds: round span "
                f"{span} >= stagger gap {phase_gap}; shrink the delay bound "
                f"or use bulk mode"
            )
        timeout = config.round_timeout
        if timeout is None:
            timeout = min(plan.tau / 2.0, 4.0 * max(2.0 * plan.delay_bound, 1e-6))
        if timeout <= span:
            raise ValueError(
                f"exact mode needs round_timeout > {span} so no round is "
                f"cut short by its timer, got {timeout}"
            )
        self._rng = RngRegistry(seed=plan.seed)
        self.trace = TraceRecorder(enabled=plan.trace_enabled)
        self._now = 0.0
        self._events = 0
        self._servers: Dict[str, _ExactServer] = {}
        for i, name in enumerate(plan.names):
            self._servers[name] = _ExactServer(
                name=name,
                delta=plan.deltas[i],
                skew=plan.skews[i],
                seg_start=0.0,
                seg_value=0.0,
                eps=plan.initial_errors[i],
                r=0.0,  # clock.read(0.0) at on_start
                poll_t=plan.phases[i],
                dests=list(plan.neighbours[i]),
            )
        # Phase order == sorted-name order (the builder enumerates sorted
        # polling names); rounds are processed serially in this order.
        self._by_phase = [self._servers[name] for name in plan.names]
        # Unordered adjacent pairs with the earlier-phased endpoint first.
        self._pairs: List[Tuple[str, str]] = []
        for a, b in config.graph.edges():
            i, j = plan.index[a], plan.index[b]
            self._pairs.append((a, b) if i < j else (b, a))
        self._pairs.sort(key=lambda pair: (plan.index[pair[0]], plan.index[pair[1]]))
        self._pending: List[_Round] = []

    # ------------------------------------------------------------- properties

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        """Heap-engine-equivalent event count: per processed round, one poll
        fire plus one delivery per request and per reply."""
        return self._events

    @property
    def stats(self) -> Dict[str, ServerStats]:
        return {name: srv.stats for name, srv in self._servers.items()}

    # --------------------------------------------------------------- drawing

    def _draw_cycle(self) -> None:
        """Draw every delay of the next cycle and queue its rounds.

        Consumes each ``net/{src}->{dst}`` stream in the heap engine's send
        order (see the module docstring's fixed-point argument).
        """
        plan = self.plan
        lo, hi = plan.delay_min, plan.delay_bound
        req: Dict[Tuple[str, str], float] = {}
        ans: Dict[Tuple[str, str], float] = {}
        for i_name, j_name in self._pairs:
            s_ij = self._rng.stream(f"net/{i_name}->{j_name}")
            s_ji = self._rng.stream(f"net/{j_name}->{i_name}")
            r_ij = float(s_ij.uniform(lo, hi))  # request i->j: first on its stream
            arrival = self._servers[i_name].poll_t + r_ij
            t_j = self._servers[j_name].poll_t
            if arrival < t_j:
                # j answers i before sending its own request.
                ans[(j_name, i_name)] = float(s_ji.uniform(lo, hi))
                req[(j_name, i_name)] = float(s_ji.uniform(lo, hi))
            else:
                req[(j_name, i_name)] = float(s_ji.uniform(lo, hi))
                ans[(j_name, i_name)] = float(s_ji.uniform(lo, hi))
            req[(i_name, j_name)] = r_ij
            ans[(i_name, j_name)] = float(s_ij.uniform(lo, hi))  # i answers j
        for srv in self._by_phase:
            ta = [srv.poll_t + req[(srv.name, dest)] for dest in srv.dests]
            tb = [ta[q] + ans[(dest, srv.name)] for q, dest in enumerate(srv.dests)]
            close_t = max(tb) if tb else srv.poll_t
            self._pending.append(_Round(srv.name, srv.poll_t, ta, tb, close_t))
            srv.poll_t = srv.poll_t + plan.tau  # PeriodicTask: repeated addition

    # ------------------------------------------------------------ processing

    def _trace_row(self, t: float, kind: str, source: str, **data) -> None:
        self.trace.record(t, kind, source, **data)

    def _process_round(self, round_: _Round) -> None:
        plan = self.plan
        srv = self._servers[round_.server]
        srv.stats.rounds += 1
        self._events += 1 + 2 * len(srv.dests)
        sent_local = srv.read(round_.poll_t)
        order = sorted(range(len(srv.dests)), key=lambda q: round_.tb[q])
        if plan.flags.kind == "mm":
            self._process_mm(srv, round_, order, sent_local)
        else:
            self._process_im(srv, round_, order, sent_local)

    def _answer(self, dest: str, at: float) -> Tuple[float, float]:
        """Rule MM-1: the answering server's ``<C_j, E_j>`` at ``at``."""
        jsrv = self._servers[dest]
        jsrv.stats.requests_answered += 1
        value = jsrv.read(at)
        return value, jsrv.error_at(value)

    def _process_mm(
        self, srv: _ExactServer, round_: _Round, order: List[int], sent_local: float
    ) -> None:
        flags = self.plan.flags
        for q in order:
            dest = srv.dests[q]
            value_j, error_j = self._answer(dest, round_.ta[q])
            tb = round_.tb[q]
            local_now = srv.read(tb)
            rtt = max(0.0, local_now - sent_local)
            srv.stats.replies_handled += 1
            state_error = srv.error_at(local_now)
            transit_lo = value_j - error_j
            transit_hi = value_j + error_j + (1.0 + srv.delta) * rtt
            consistent = (local_now - state_error) <= transit_hi and transit_lo <= (
                local_now + state_error
            )
            if not consistent:
                srv.stats.inconsistencies += 1
                self._trace_row(tb, "inconsistent", srv.name, conflicting=dest)
                continue
            factor = (1.0 + srv.delta) if flags.inflate_rtt else 1.0
            candidate = error_j + factor * rtt
            accepted = (
                candidate < state_error
                if flags.strict_improvement
                else candidate <= state_error
            )
            if accepted:
                srv.seg_start = tb
                srv.seg_value = value_j
                srv.r = value_j  # exact read-back on a RateClock
                srv.eps = candidate
                srv.stats.resets += 1
                self._trace_row(
                    tb,
                    "reset",
                    srv.name,
                    from_server=dest,
                    new_value=value_j,
                    new_error=candidate,
                    reset_kind="sync",
                )
            else:
                srv.stats.rejects += 1
                self._trace_row(tb, "reject", srv.name, server=dest)

    def _process_im(
        self, srv: _ExactServer, round_: _Round, order: List[int], sent_local: float
    ) -> None:
        flags = self.plan.flags
        pending: List[Tuple[str, float, float, float, float]] = []
        for q in order:
            dest = srv.dests[q]
            value_j, error_j = self._answer(dest, round_.ta[q])
            local_now = srv.read(round_.tb[q])
            rtt = max(0.0, local_now - sent_local)
            srv.stats.replies_handled += 1
            pending.append((dest, value_j, error_j, rtt, local_now))
        t_close = round_.close_t
        local_now = srv.read(t_close)
        state_error = srv.error_at(local_now)
        candidates: List[Tuple[str, float, float]] = []
        for dest, value_j, error_j, rtt, at_receipt in pending:
            elapsed = max(0.0, local_now - at_receipt)
            aged_value = value_j + elapsed
            aged_error = error_j + srv.delta * elapsed
            rtt_term = (1.0 + srv.delta) * rtt
            trailing = aged_value - aged_error - local_now
            if flags.widen_both_edges:
                trailing -= rtt_term
            leading = aged_value + aged_error + rtt_term - local_now
            candidates.append((dest, trailing, leading))
        if flags.include_self:
            candidates.append(("self", -state_error, state_error))
        if not candidates:
            return  # scalar: empty round, include_self=False -> consistent no-op
        a_name, a, _ = max(candidates, key=lambda c: c[1])
        b_name, _, b = min(candidates, key=lambda c: c[2])
        source = a_name if a_name == b_name else f"{a_name}∩{b_name}"
        consistent = (b >= a) if flags.allow_point_intersection else (b > a)
        if not consistent:
            conflicting = ",".join(
                name for name in source.split("∩") if name != "self"
            )
            srv.stats.inconsistencies += 1
            self._trace_row(t_close, "inconsistent", srv.name, conflicting=conflicting)
            return
        if flags.reset_to == "midpoint":
            offset = (a + b) / 2.0
            new_error = (b - a) / 2.0
        else:
            offset = a
            new_error = b - a
        new_value = local_now + offset
        srv.seg_start = t_close
        srv.seg_value = new_value
        srv.r = new_value
        srv.eps = new_error
        srv.stats.resets += 1
        self._trace_row(
            t_close,
            "reset",
            srv.name,
            from_server=source,
            new_value=new_value,
            new_error=new_error,
            reset_kind="sync",
        )

    # --------------------------------------------------------------- control

    def run_until(self, time: float) -> None:
        """Advance to absolute real time ``time``, processing every round
        that *closes* by then.

        A round straddling ``time`` (poll fired, last reply still in
        flight) is deferred whole — the one known divergence from the heap
        engine, which would have processed the early replies.  Sampling on
        multiples of τ (every experiment grid here) never lands inside a
        round, because rounds span at most ``2·bound < τ/(n+1)``.
        """
        if time < self._now:
            raise ValueError(f"cannot run backwards to {time} from {self._now}")
        while True:
            if not self._pending:
                next_poll = min(srv.poll_t for srv in self._by_phase)
                if next_poll > time:
                    break
                self._draw_cycle()
            while self._pending and self._pending[0].close_t <= time:
                self._process_round(self._pending.pop(0))
            if self._pending:
                break
        self._now = time

    # -------------------------------------------------------------- sampling

    def snapshot(self) -> ServiceSnapshot:
        """Per-server observables now (same shape the builder services give)."""
        t = self._now
        values: Dict[str, float] = {}
        errors: Dict[str, float] = {}
        offsets: Dict[str, float] = {}
        correct: Dict[str, bool] = {}
        for name in self.plan.names:
            srv = self._servers[name]
            value = srv.read(t)
            error = srv.error_at(value)
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
    round_timeout: Optional[float] = None,
    trace_enabled: bool = True,
    prefetch_cycles: int = 32,
):
    """Build a kernel service — the batched twin of ``build_service``.

    Args:
        mode: ``"exact"`` for the bit-exact scalar replay (small meshes,
            differential testing) or ``"bulk"`` for the vectorized/sharded
            scale mode.
        shards: Bulk mode only — number of topology shards.
        processes: Bulk mode only — worker processes to spread shards over
            (0 = in-process; at most one per shard is started).

    Returns:
        :class:`ExactKernelService` or
        :class:`~repro.kernel.shard.ShardedKernelService`.
    """
    config = KernelConfig(
        graph=graph,
        specs=specs,
        policy=policy,
        tau=tau,
        seed=seed,
        delay=lan_delay,
        round_timeout=round_timeout,
        trace_enabled=trace_enabled,
        prefetch_cycles=prefetch_cycles,
    )
    if mode == "exact":
        if shards != 1 or processes:
            raise ValueError("exact mode is single-shard and in-process")
        return ExactKernelService(config)
    if mode == "bulk":
        from .shard import ShardedKernelService

        return ShardedKernelService(config, shards=shards, processes=processes)
    raise ValueError(f"mode must be 'exact' or 'bulk', got {mode!r}")

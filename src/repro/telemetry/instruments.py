"""Instrumentation: binding the registry and tracer to the simulation.

This module is the glue between the passive containers
(:mod:`repro.telemetry.registry`, :mod:`repro.telemetry.tracing`) and the
simulated system:

* :class:`ServerTelemetry` — the per-server handle a
  :class:`~repro.service.server.TimeServer` calls from its hot paths
  (round open, reply, reset, answer).  The disabled singleton
  :data:`NULL_SERVER_TELEMETRY` makes every call a no-op, so the server
  code carries no ``if telemetry:`` branches.
* :class:`EngineInstruments` — the engine event observer (events fired,
  inter-event gap, heap depth).
* :class:`TelemetrySampler` — a :class:`~repro.simulation.process.SimProcess`
  that periodically samples the gauges the theorems are about: live
  ``E_i`` per server (Theorems 2/3), oracle per-edge asynchronism against
  the Theorem 7 bound ``ξ + (δ_i + δ_j)·τ``, queue depths, reputation
  scores, fault budgets, and merge epochs.
* :class:`ServiceTelemetry` — the bundle a
  :func:`~repro.service.builder.build_service` call owns: one registry,
  one tracer, one event stream, per-server handles, and export helpers.

Metric names follow Prometheus conventions (``repro_`` prefix, base
units, ``_total`` for counters); the full catalogue is in
``docs/observability.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..simulation.process import SimProcess
from .exporters import JsonlEventExporter, summary_snapshot, write_telemetry
from .registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
)
from .tracing import NULL_TRACER, Span, SpanTracer

__all__ = [
    "EngineInstruments",
    "NULL_SERVER_TELEMETRY",
    "NULL_SERVICE_TELEMETRY",
    "RoundTelemetry",
    "ServerTelemetry",
    "ServiceTelemetry",
    "TelemetrySampler",
]


class RoundTelemetry:
    """Per-round span context: the round span plus one leg span per
    neighbour still awaiting a verdict."""

    __slots__ = ("span", "legs")

    def __init__(self, span: Optional[Span]) -> None:
        self.span = span
        self.legs: Dict[str, Span] = {}


class ServerTelemetry:
    """The per-server instrument handle.

    Args:
        registry: A (scoped) registry; pass a
            :class:`~repro.telemetry.registry.NullRegistry` view to count
            nothing.
        tracer: The shared span tracer (``NULL_TRACER`` to trace nothing).
        server: The owning server's name (span source).
    """

    def __init__(
        self,
        registry,
        tracer: SpanTracer,
        server: str,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.server = server
        self.enabled = bool(registry.enabled or tracer.enabled)
        # Hot methods skip the tracer entirely when spans are off, and
        # call through pre-bound methods when they are on.
        self._spans_on = tracer.enabled
        self._tracer_start = tracer.start
        self._tracer_end = tracer.end
        # Children are pre-bound (``.labels()``) so the hot path is a bare
        # ``Counter.inc`` — no per-call label merging.
        # -- sync plane -------------------------------------------------
        self._rounds = registry.counter(
            "repro_sync_rounds_total", "Rule MM-2/IM-2 rounds started"
        ).labels()
        self._polls = registry.counter(
            "repro_sync_polls_total",
            "Poll requests handed to the transport",
            ("outcome",),
        )
        self._replies = registry.counter(
            "repro_sync_replies_total",
            "Poll replies by verdict",
            ("verdict",),
        )
        self._rtt = registry.histogram(
            "repro_sync_rtt_local_seconds",
            "Local-clock round-trip times xi^i_j of accepted replies",
        ).labels()
        # The inflation is (1+δ)·ξ^i_j — a scaled copy of the RTT, so the
        # RTT family's sketches already carry the quantile story; skip the
        # per-reply P² folds here.
        self._inflation = registry.histogram(
            "repro_sync_inflation_seconds",
            "The (1+delta)*xi round-trip inflation applied to adopted errors",
            quantiles=(),
        ).labels()
        resets = registry.counter(
            "repro_clock_resets_total",
            "Clock resets applied, by kind (sync/recovery)",
            ("kind",),
        )
        self._reset_children = {
            "sync": resets.labels(kind="sync"),
            "recovery": resets.labels(kind="recovery"),
        }
        self._adoptions = registry.counter(
            "repro_sync_adoptions_total",
            "Rule MM-2/IM-2 reply adoptions (sync resets)",
        ).labels()
        self._inconsistencies = registry.counter(
            "repro_sync_inconsistencies_total",
            "Detected inconsistencies (Section 3 trigger)",
        ).labels()
        self._error_gauge = registry.gauge(
            "repro_server_error_seconds",
            "Live rule MM-1 error bound E_i",
            ("server",),
        ).labels()
        self._answers = registry.counter(
            "repro_requests_answered_total",
            "Requests answered, by request kind",
            ("kind",),
        )
        # -- recovery (Section 3 + crash-recovery subsystem) ------------
        self._recoveries = registry.counter(
            "repro_recovery_attempts_total",
            "Third-server recovery attempts, by outcome",
            ("outcome",),
        )
        self._checkpoints = registry.counter(
            "repro_recovery_checkpoints_total",
            "Durable checkpoints written to the stable store",
        ).labels()
        self._restarts = registry.counter(
            "repro_recovery_restarts_total",
            "Crash restarts, by kind (warm/cold)",
            ("kind",),
        )
        self._merges = registry.counter(
            "repro_recovery_merges_total",
            "Epoch-numbered consistency-group merges adopted",
        ).labels()
        self._epoch_gauge = registry.gauge(
            "repro_recovery_epoch", "Current merge epoch", ("server",)
        ).labels()
        # -- byzantine layer --------------------------------------------
        self._demotions = registry.counter(
            "repro_byzantine_demotions_total",
            "Neighbours demoted from the poll set as falsetickers",
        ).labels()
        # Lazily cached children for the remaining label lookups.
        self._answer_children: Dict[Any, Any] = {}
        self._verdict_children: Dict[str, Any] = {}
        self._poll_sent = self._polls.labels(outcome="sent")
        self._poll_unsent = self._polls.labels(outcome="unsent")
        # Hot-path batching: the per-round methods bump these plain
        # attributes and the registered collector folds them into the
        # counter children right before any registry read, so the hot
        # path is integer arithmetic instead of method dispatch.
        self._n_rounds = 0
        self._n_poll_sent = 0
        self._n_poll_unsent = 0
        self._n_verdicts: Dict[str, int] = {}
        self._n_adoptions = 0
        self._n_resets: Dict[str, int] = {"sync": 0, "recovery": 0}
        # id(kind) -> [kind, count] (see answered()).
        self._n_answers: Dict[int, list] = {}
        registry.add_collector(self._flush_pending)

    def _flush_pending(self) -> None:
        """Fold the batched hot-path counts into the counter children."""
        if self._n_rounds:
            self._rounds.inc(self._n_rounds)
            self._n_rounds = 0
        if self._n_poll_sent:
            self._poll_sent.inc(self._n_poll_sent)
            self._n_poll_sent = 0
        if self._n_poll_unsent:
            self._poll_unsent.inc(self._n_poll_unsent)
            self._n_poll_unsent = 0
        verdicts = self._n_verdicts
        if verdicts:
            for verdict, count in verdicts.items():
                self._verdict(verdict).inc(count)
            verdicts.clear()
        if self._n_adoptions:
            self._adoptions.inc(self._n_adoptions)
            self._n_adoptions = 0
        resets = self._n_resets
        if resets["sync"]:
            self._reset_children["sync"].inc(resets["sync"])
            resets["sync"] = 0
        if resets["recovery"]:
            self._reset_children["recovery"].inc(resets["recovery"])
            resets["recovery"] = 0
        answers = self._n_answers
        if answers:
            for kind, count in answers.values():
                child = self._answer_children.get(kind)
                if child is None:
                    child = self._answers.labels(
                        kind=getattr(kind, "name", str(kind)).lower()
                    )
                    self._answer_children[kind] = child
                child.inc(count)
            answers.clear()

    def stats_registry(self):
        """The scoped registry for counter-backed stats bundles, or None.

        :class:`~repro.telemetry.registry.CounterBackedStats` refuses null
        registries (the thin stats views must keep counting when telemetry
        is off), so disabled handles return None and the bundle builds its
        own private registry.
        """
        return self.registry if self.registry.enabled else None

    # ------------------------------------------------------------- rounds

    def round_started(self, t: float, round_id: int) -> Optional[RoundTelemetry]:
        """A synchronization round opened; returns the round context."""
        self._n_rounds += 1
        if not self._spans_on:
            return None
        span = self._tracer_start(
            t, "poll_round", self.server, round_id=round_id
        )
        return RoundTelemetry(span)

    def poll_sent(
        self,
        ctx: Optional[RoundTelemetry],
        t: float,
        neighbour: str,
        accepted: bool,
    ) -> None:
        """One poll request left (or failed to leave) for ``neighbour``."""
        if accepted:
            self._n_poll_sent += 1
        else:
            self._n_poll_unsent += 1
        if ctx is None:
            return
        leg = self._tracer_start(
            t, "poll", self.server, parent=ctx.span, neighbour=neighbour
        )
        if accepted:
            ctx.legs[neighbour] = leg
        else:
            self._tracer_end(t, leg, status="unsent")

    def reply_invalid(
        self,
        ctx: Optional[RoundTelemetry],
        t: float,
        neighbour: str,
        reason: str,
    ) -> None:
        """A reply was rejected by validation before the policy saw it."""
        verdicts = self._n_verdicts
        verdicts["invalid"] = verdicts.get("invalid", 0) + 1
        if ctx is not None:
            self._tracer_end(
                t, ctx.legs.pop(neighbour, None), status="invalid", reason=reason
            )

    def reply_observed(
        self,
        ctx: Optional[RoundTelemetry],
        t: float,
        neighbour: str,
        rtt_local: float,
        inflation: float,
    ) -> None:
        """A valid reply arrived; records ξ^i_j and the (1+δ)ξ inflation."""
        self._rtt.observe(rtt_local)
        self._inflation.observe(inflation)
        if ctx is not None:
            leg = ctx.legs.get(neighbour)
            if leg is not None:
                leg.annotate(rtt_local=rtt_local, inflation=inflation)

    def reply_verdict(
        self,
        ctx: Optional[RoundTelemetry],
        t: float,
        neighbour: str,
        verdict: str,
        **attrs: Any,
    ) -> None:
        """The policy's per-reply decision (rule MM-2's accept/reject, or
        ``received`` for batch policies that decide at round close)."""
        verdicts = self._n_verdicts
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        if ctx is not None:
            self._tracer_end(
                t, ctx.legs.pop(neighbour, None), status=verdict, **attrs
            )

    def _verdict(self, verdict: str):
        child = self._verdict_children.get(verdict)
        if child is None:
            child = self._replies.labels(verdict=verdict)
            self._verdict_children[verdict] = child
        return child

    def round_closed(
        self,
        ctx: Optional[RoundTelemetry],
        t: float,
        status: str,
        **attrs: Any,
    ) -> None:
        """The round completed; unanswered legs close as timeouts."""
        if ctx is None:
            return
        if ctx.legs:
            for neighbour in sorted(ctx.legs):
                self._tracer_end(t, ctx.legs[neighbour], status="timeout")
            ctx.legs.clear()
        self._tracer_end(t, ctx.span, status=status, **attrs)

    # ------------------------------------------------- resets and answers

    def reset(
        self,
        t: float,
        kind: str,
        source: str,
        new_error: float,
        ctx: Optional[RoundTelemetry] = None,
    ) -> None:
        """A clock reset was applied (rule MM-2/IM-2 adoption or recovery)."""
        resets = self._n_resets
        resets[kind if kind in resets else "sync"] += 1
        if kind == "sync":
            self._n_adoptions += 1
        self._error_gauge.set(new_error)
        if self._spans_on:
            self.tracer.event(
                t,
                "reset",
                self.server,
                parent=None if ctx is None else ctx.span,
                status=kind,
                origin=source,
                new_error=new_error,
            )

    def inconsistency(self, t: float, conflicting: Tuple[str, ...]) -> None:
        """Rule MM-2/IM-2 flagged an inconsistent neighbour set."""
        self._inconsistencies.inc()
        self.tracer.event(
            t,
            "inconsistency",
            self.server,
            conflicting=",".join(conflicting),
        )

    def answered(self, kind: Any) -> None:
        """A request was answered (hot path: a dict bump, folded later).

        Keyed by ``id(kind)`` — request kinds are enum singletons and
        hashing an Enum goes through a Python-level ``__hash__``, which
        is most of this method's cost at C-level dict speed.
        """
        entry = self._n_answers.get(id(kind))
        if entry is None:
            self._n_answers[id(kind)] = entry = [kind, 0]
        entry[1] += 1

    def error_bound(self, value: float) -> None:
        """Update the live E_i gauge."""
        self._error_gauge.set(value)

    # ----------------------------------------------------------- recovery

    def recovery(self, t: float, outcome: str, arbiter: str = "") -> None:
        """A Section 3 recovery attempt changed state."""
        self._recoveries.labels(outcome=outcome).inc()
        if outcome != "started":
            return
        self.tracer.event(t, "recovery", self.server, arbiter=arbiter)

    def checkpoint(self, t: float) -> None:
        """A durable checkpoint was written."""
        self._checkpoints.inc()

    def restart(self, t: float, warm: bool) -> None:
        """The server restarted from a crash."""
        self._restarts.labels(kind="warm" if warm else "cold").inc()
        self.tracer.event(t, "restart", self.server, status="warm" if warm else "cold")

    def merge(self, t: float, epoch: int) -> None:
        """An epoch-numbered group merge was adopted."""
        self._merges.inc()
        self._epoch_gauge.set(epoch)

    def epoch(self, value: int) -> None:
        """Update the merge-epoch gauge."""
        self._epoch_gauge.set(value)

    # ---------------------------------------------------------- byzantine

    def demotion(self, t: float, neighbour: str) -> None:
        """A neighbour was demoted from the poll set as a falseticker."""
        self._demotions.inc()
        self.tracer.event(t, "demotion", self.server, neighbour=neighbour)


class _NullServerTelemetry(ServerTelemetry):
    """Every instrument call a no-op; every span context None."""

    def __init__(self) -> None:
        super().__init__(NULL_REGISTRY, NULL_TRACER, "")
        self.enabled = False

    def round_started(self, t, round_id):
        return None

    def poll_sent(self, ctx, t, neighbour, accepted):
        pass

    def reply_invalid(self, ctx, t, neighbour, reason):
        pass

    def reply_observed(self, ctx, t, neighbour, rtt_local, inflation):
        pass

    def reply_verdict(self, ctx, t, neighbour, verdict, **attrs):
        pass

    def round_closed(self, ctx, t, status, **attrs):
        pass

    def reset(self, t, kind, source, new_error, ctx=None):
        pass

    def inconsistency(self, t, conflicting):
        pass

    def answered(self, kind):
        pass

    def error_bound(self, value):
        pass

    def recovery(self, t, outcome, arbiter=""):
        pass

    def checkpoint(self, t):
        pass

    def restart(self, t, warm):
        pass

    def merge(self, t, epoch):
        pass

    def epoch(self, value):
        pass

    def demotion(self, t, neighbour):
        pass


#: Shared disabled handle: the default for every server.
NULL_SERVER_TELEMETRY = _NullServerTelemetry()


class EngineInstruments:
    """The engine's event observer: counts, cadence, heap depth.

    Wired via :meth:`~repro.simulation.engine.SimulationEngine.set_observer`;
    the callback runs once per fired event, so it stays tiny: plain-int
    accumulation flushed into the instruments by a registry collector.
    It also drives the :class:`TelemetrySampler` grid, which keeps the
    sampler's periodic off the engine heap entirely.
    """

    def __init__(self, registry) -> None:
        self._events = registry.counter(
            "repro_engine_events_total", "Simulation events fired"
        ).labels()
        # No quantile sketches: this histogram folds once per engine event
        # (the hottest call site in the whole plane), and the bucket
        # counts already characterise the cadence.
        self._gap = registry.histogram(
            "repro_engine_event_gap_seconds",
            "Sim-time gap between consecutive events (event-loop cadence)",
            quantiles=(),
        ).labels()
        self._heap = registry.gauge(
            "repro_engine_heap_depth", "Events pending on the engine heap"
        ).labels()
        self._last_time: Optional[float] = None
        # The observer fires once per engine event, so per-event work is a
        # bare int bump + list append; the registered collector folds the
        # backlog into the real instruments on the next registry read.
        self._pending_events = 0
        self._pending_gaps: List[float] = []
        self._engine = None
        # Set by ServiceTelemetry.attach: the gauge sampler that
        # piggybacks on this observer instead of injecting its own
        # periodic events into the engine heap.
        self.sampler: Optional[TelemetrySampler] = None
        registry.add_collector(self._flush_pending)

    def _flush_pending(self) -> None:
        """Fold the batched per-event counts into the instruments."""
        if self._pending_events:
            self._events.inc(self._pending_events)
            self._pending_events = 0
        gaps = self._pending_gaps
        if gaps:
            self._pending_gaps = []
            observe = self._gap.observe
            for gap in gaps:
                observe(gap)
        if self._engine is not None:
            self._heap.set(self._engine.heap_depth)

    def on_event(self, engine, event) -> None:
        """Called by the engine after each event fires."""
        self._pending_events += 1
        t = event.time
        last = self._last_time
        if last is not None:
            self._pending_gaps.append(t - last)
        self._last_time = t
        self._engine = engine
        sampler = self.sampler
        if sampler is not None and t >= sampler.next_due:
            sampler.on_grid(t)


class TelemetrySampler(SimProcess):
    """Periodic gauge sampling: the numbers the theorems bound, live.

    Every ``period`` simulated seconds it reads, without disturbing:

    * each server's rule MM-1 error bound ``E_i`` (Theorems 2/3) and the
      oracle true offset ``|C_i - t|``;
    * for every topology edge between polling servers, the oracle
      asynchronism ``|C_i - C_j|`` against the Theorem 7 bound
      ``ξ + (δ_i + δ_j)·τ`` — breaches increment
      ``repro_theorem7_breaches_total`` (expected only inside fault
      windows);
    * when ``local_skew_bound`` is set, the same per-edge quantity as the
      gradient literature's *local skew* (``repro_edge_local_skew_seconds``)
      against that stated bound — breaches increment
      ``repro_local_skew_breaches_total``.  Distinct from the Theorem 7
      gauge in two ways: the bound is a single service-wide statement
      (the dynamic gauntlet's acceptance criterion) rather than a
      per-edge constant, and the edge set tracks live topology mutation
      (the roster rebuilds whenever ``network.topology_version`` moves);
    * engine throughput (events/sec of simulated time);
    * run-queue depth for load-aware servers, reputation/budget for
      Byzantine servers, merge epochs for self-stabilizing ones.
    """

    def __init__(
        self,
        engine,
        service,
        registry,
        *,
        period: float = 5.0,
        oracle: bool = True,
        events: Optional[JsonlEventExporter] = None,
        tracer: Optional[SpanTracer] = None,
        summary_every: int = 0,
        local_skew_bound: Optional[float] = None,
        name: str = "telemetry",
    ) -> None:
        super().__init__(engine, name)
        if period <= 0:
            raise ValueError(f"sampler period must be positive, got {period}")
        self.service = service
        self.registry = registry
        self.period = period
        self.oracle = oracle
        self.events = events
        self.tracer = tracer
        self.summary_every = summary_every
        self._samples = 0
        # The engine observer (EngineInstruments.on_event) compares each
        # event time against this grid and calls on_grid when it is
        # crossed — piggybacking keeps the sampler off the engine heap,
        # so an instrumented run fires exactly the same events as a bare
        # one.  Runs without an observer (registry disabled, or no
        # events at all) sample only on explicit sample_now() calls.
        self.next_due = engine.now + period
        self._last_events: Optional[Tuple[float, int]] = None
        # labels() validates and merges label dicts on every call; at one
        # call per gauge per server per sample that dominates the sampler,
        # so children are pre-bound per roster (see _rebuild_roster) and
        # only rebuilt when service membership changes.  _children memoises
        # the remaining dynamic lookups (per-neighbour reputation).
        self._children: Dict[tuple, object] = {}
        self._roster_keys: Optional[frozenset] = None
        self._server_rows: List[tuple] = []
        self._edge_rows: List[tuple] = []
        self._edge_version: Optional[int] = None
        self.local_skew_bound = local_skew_bound
        reg = registry
        self._error = reg.gauge(
            "repro_server_error_seconds",
            "Live rule MM-1 error bound E_i",
            ("server",),
        )
        self._offset = reg.gauge(
            "repro_server_true_offset_seconds",
            "Oracle |C_i(t) - t| (not observable in a real deployment)",
            ("server",),
        )
        self._edge_asyn = reg.gauge(
            "repro_edge_asynchronism_seconds",
            "Oracle per-edge asynchronism |C_i - C_j|",
            ("edge",),
        )
        self._edge_bound = reg.gauge(
            "repro_edge_asynchronism_bound_seconds",
            "Theorem 7 bound xi + (delta_i + delta_j) * tau",
            ("edge",),
        )
        self._breaches = reg.counter(
            "repro_theorem7_breaches_total",
            "Edge-samples where asynchronism exceeded the Theorem 7 bound",
        )
        self._edge_skew = reg.gauge(
            "repro_edge_local_skew_seconds",
            "Oracle local skew |C_i - C_j| over currently live edges",
            ("edge",),
        )
        self._skew_bound_gauge = reg.gauge(
            "repro_local_skew_bound_seconds",
            "Stated service-wide local-skew bound (dynamic gauntlet)",
        )
        self._skew_breaches = reg.counter(
            "repro_local_skew_breaches_total",
            "Edge-samples where local skew exceeded the stated bound",
        )
        if local_skew_bound is not None:
            self._skew_bound_gauge.set(local_skew_bound)
        self._eps = reg.gauge(
            "repro_engine_events_per_second",
            "Events fired per simulated second, over the last sample window",
        )
        self._queue_depth = reg.gauge(
            "repro_load_queue_depth", "Run-queue occupancy", ("server",)
        )
        self._reputation = reg.gauge(
            "repro_byzantine_reputation_score",
            "EWMA truechimer reputation per neighbour edge",
            ("server", "neighbour"),
        )
        self._budget = reg.gauge(
            "repro_byzantine_fault_budget",
            "Adaptive FT-IM fault budget value",
            ("server",),
        )
        self._epoch = reg.gauge(
            "repro_recovery_epoch", "Current merge epoch", ("server",)
        )
        self._holdover_state = reg.gauge(
            "repro_holdover_state",
            "Holdover machine state (0 SYNCED, 1 HOLDOVER, 2 DEGRADED, "
            "3 REINTEGRATING)",
            ("server",),
        )
        self._holdover_age = reg.gauge(
            "repro_holdover_age_seconds",
            "Local seconds since sources were last trusted (0 while SYNCED)",
            ("server",),
        )
        self._slew_remaining = reg.gauge(
            "repro_slew_remaining_seconds",
            "Signed correction still to be amortised by the slewing clock",
            ("server",),
        )

    # ------------------------------------------------------------ lifecycle

    def on_grid(self, t: float) -> None:
        """The observer crossed the sampling grid: advance it and sample."""
        period = self.period
        due = self.next_due
        while due <= t:
            due += period
        self.next_due = due
        self.sample_now(t)

    # ------------------------------------------------------------- sampling

    def _child(self, family, **labels):
        key = (id(family), *sorted(labels.items()))
        child = self._children.get(key)
        if child is None:
            child = family.labels(**labels)
            self._children[key] = child
        return child

    def _rebuild_roster(self, servers) -> None:
        """Pre-bind every per-server and per-edge gauge child.

        ``labels()`` validation and the duck-typed subsystem probing are
        too slow to repeat every sample, so both run once per membership
        change.  Which subsystem gauges a server carries is fixed at
        construction (queue / reputation / budget / epoch are constructor
        attributes), and the Theorem 7 bound is constant per edge (δ, ξ,
        τ are fixed at build time) — its gauge is set here, once.  The
        rebuild also re-reads the (possibly mutated) edge set; live
        topology changes re-trigger it via ``network.topology_version``.
        """
        self._roster_keys = frozenset(servers)
        self._edge_version = getattr(
            self.service.network, "topology_version", None
        )
        oracle = self.oracle
        rows = []
        for name in sorted(servers):
            server = servers[name]
            extras = []
            if getattr(server, "queue", None) is not None:
                queue_set = self._child(self._queue_depth, server=name).set
                extras.append(
                    lambda s=server, set_=queue_set: set_(len(s.queue))
                )
            if getattr(server, "reputation", None) is not None:
                extras.append(
                    lambda s=server, n=name: self._sample_reputation(n, s)
                )
            if getattr(server, "budget_controller", None) is not None:
                budget_set = self._child(self._budget, server=name).set
                extras.append(
                    lambda s=server, set_=budget_set: set_(
                        s.budget_controller.value
                    )
                )
            if getattr(server, "epoch", None) is not None:
                epoch_set = self._child(self._epoch, server=name).set
                extras.append(
                    lambda s=server, set_=epoch_set: set_(s.epoch)
                )
            if getattr(server, "holdover", None) is not None:
                state_set = self._child(self._holdover_state, server=name).set
                age_set = self._child(self._holdover_age, server=name).set
                extras.append(
                    lambda s=server, st=state_set, ag=age_set: (
                        st(int(s.holdover.state)),
                        ag(s.holdover_age_now()),
                    )
                )
            if hasattr(getattr(server, "clock", None), "slew_remaining"):
                slew_set = self._child(self._slew_remaining, server=name).set
                # getattr at sample time: the injector may have swapped a
                # failure wrapper over the slewing clock mid-window.
                extras.append(
                    lambda s=server, set_=slew_set: set_(
                        getattr(s.clock, "slew_remaining", 0.0)
                    )
                )
            rows.append(
                (
                    name,
                    server,
                    self._child(self._error, server=name).set,
                    self._child(self._offset, server=name).set
                    if oracle
                    else None,
                    tuple(extras),
                )
            )
        self._server_rows = rows
        edge_rows = []
        if oracle:
            tau = self.service.tau
            xi = self.service.xi
            for a, b in self.service.network.graph.edges:
                a, b = sorted((str(a), str(b)))
                sa, sb = servers.get(a), servers.get(b)
                if sa is None or sb is None:
                    continue
                if sa.policy is None or sb.policy is None:
                    continue
                edge = f"{a}-{b}"
                asyn_set = self._child(self._edge_asyn, edge=edge).set
                bound = None
                if tau is not None:
                    bound = xi + (sa.delta + sb.delta) * tau
                    self._child(self._edge_bound, edge=edge).set(bound)
                skew_set = (
                    self._child(self._edge_skew, edge=edge).set
                    if self.local_skew_bound is not None
                    else None
                )
                edge_rows.append((a, b, asyn_set, bound, skew_set))
        self._edge_rows = sorted(edge_rows, key=lambda row: row[:2])

    def _sample_reputation(self, name: str, server) -> None:
        """Per-neighbour reputation gauges (children memoised lazily —
        the record set can grow as neighbours are first classified)."""
        for neighbour, record in sorted(server.reputation.records.items()):
            self._child(
                self._reputation, server=name, neighbour=neighbour
            ).set(record.score)

    def sample_now(self, t: Optional[float] = None) -> None:
        """Take one sample of every gauge (``t`` defaults to sim-now)."""
        if t is None:
            t = self.now
        self._samples += 1
        servers = self.service.servers
        version = getattr(self.service.network, "topology_version", None)
        if servers.keys() != self._roster_keys or version != self._edge_version:
            self._rebuild_roster(servers)
        values: Dict[str, float] = {}
        for name, server, error_set, offset_set, extras in self._server_rows:
            if server.departed:
                continue
            value, error = server.report()
            values[name] = value
            error_set(error)
            if offset_set is not None:
                offset_set(abs(value - t))
            for extra in extras:
                extra()
        if self.oracle:
            breaches = 0
            skew_breaches = 0
            skew_bound = self.local_skew_bound
            for a, b, asyn_set, bound, skew_set in self._edge_rows:
                va = values.get(a)
                if va is None:
                    continue
                vb = values.get(b)
                if vb is None:
                    continue
                asyn = va - vb
                if asyn < 0.0:
                    asyn = -asyn
                asyn_set(asyn)
                if bound is not None and asyn > bound:
                    breaches += 1
                if skew_set is not None:
                    # Local skew is the same oracle quantity over the
                    # *live* edge set, judged against the stated
                    # service-wide bound instead of Theorem 7's per-edge
                    # constant.
                    skew_set(asyn)
                    if skew_bound is not None and asyn > skew_bound:
                        skew_breaches += 1
            if breaches:
                self._breaches.inc(breaches)
            if skew_breaches:
                self._skew_breaches.inc(skew_breaches)
        engine_events = self.engine.events_processed
        if self._last_events is not None:
            last_t, last_count = self._last_events
            window = t - last_t
            if window > 0:
                self._eps.set((engine_events - last_count) / window)
        self._last_events = (t, engine_events)
        if self.events is not None and self.summary_every and (
            self._samples % self.summary_every == 0
        ):
            self.events.frame(t, self.registry, self.tracer)


class ServiceTelemetry:
    """One service's whole telemetry plane: registry + tracer + exporters.

    Pass an instance to :func:`~repro.service.builder.build_service` via
    ``telemetry=``; the builder hands each server a scoped
    :class:`ServerTelemetry`, wires the engine observer, and starts the
    gauge sampler.  Export any time with :meth:`write` (or build the
    Prometheus text / summary dict directly).

    Args:
        registry: Use a specific registry (defaults to a fresh one; pass
            a :class:`~repro.telemetry.registry.NullRegistry` to measure
            the no-op overhead).
        spans: Record spans (disable for metric-only runs).
        oracle: Sample oracle gauges (true offsets, per-edge asynchronism
            vs the Theorem 7 bound).
        sample_period: Seconds of simulated time between gauge samples.
        summary_every: Append a JSONL summary frame every N samples
            (0 disables the periodic frames).
        local_skew_bound: Stated service-wide local-skew bound; enables
            the per-edge ``repro_edge_local_skew_seconds`` gauges and the
            ``repro_local_skew_breaches_total`` counter (dynamic runs).
    """

    def __init__(
        self,
        *,
        registry=None,
        spans: bool = True,
        oracle: bool = True,
        sample_period: float = 5.0,
        summary_every: int = 0,
        local_skew_bound: Optional[float] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        record_spans = spans and self.registry.enabled
        self.tracer = SpanTracer() if record_spans else NULL_TRACER
        self.events = JsonlEventExporter()
        self.oracle = oracle
        self.sample_period = sample_period
        self.summary_every = summary_every
        self.local_skew_bound = local_skew_bound
        self.sampler: Optional[TelemetrySampler] = None

    @property
    def enabled(self) -> bool:
        """Whether anything is being recorded at all."""
        return self.registry.enabled or self.tracer.enabled

    # -------------------------------------------------------------- wiring

    def server(self, name: str) -> ServerTelemetry:
        """The scoped per-server handle (a null handle when disabled)."""
        if not self.enabled:
            return NULL_SERVER_TELEMETRY
        return ServerTelemetry(
            self.registry.scoped(server=name), self.tracer, name
        )

    def attach(self, service) -> None:
        """Wire the engine observer and hook the gauge sampler onto it."""
        if not self.enabled:
            return
        self.sampler = TelemetrySampler(
            service.engine,
            service,
            self.registry,
            period=self.sample_period,
            oracle=self.oracle,
            events=self.events,
            tracer=self.tracer,
            summary_every=self.summary_every,
            local_skew_bound=self.local_skew_bound,
        )
        if self.registry.enabled:
            instruments = EngineInstruments(self.registry)
            instruments.sampler = self.sampler
            service.engine.set_observer(instruments.on_event)

    # -------------------------------------------------------------- export

    def summary(self, *, time: Optional[float] = None) -> Dict[str, Any]:
        """Headline numbers (see :func:`summary_snapshot`)."""
        return summary_snapshot(self.registry, self.tracer, time=time)

    def write(
        self,
        directory,
        *,
        summary_extra: Optional[Dict[str, Any]] = None,
        time: Optional[float] = None,
    ) -> Dict[str, str]:
        """Write ``metrics.prom``, ``spans.jsonl``, ``summary.json``."""
        return write_telemetry(
            directory,
            self.registry,
            self.tracer if self.tracer.enabled else None,
            summary_extra=summary_extra,
            time=time,
        )


class _NullServiceTelemetry(ServiceTelemetry):
    """The disabled bundle: null registry, null tracer, no sampler."""

    def __init__(self) -> None:
        super().__init__(registry=NullRegistry(), spans=False)

    def server(self, name: str) -> ServerTelemetry:
        return NULL_SERVER_TELEMETRY

    def attach(self, service) -> None:
        pass


#: Shared disabled bundle: what ``build_service(telemetry=None)`` uses.
NULL_SERVICE_TELEMETRY = _NullServiceTelemetry()

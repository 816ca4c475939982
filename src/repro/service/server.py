"""The time server process.

:class:`TimeServer` implements the server side of both algorithms:

* **Rule MM-1 / IM-1** — answering requests.  The server maintains its
  clock ``C_i``, the clock value at its last reset ``r_i``, and the
  inherited error ``ε_i``; it reports
  ``E_i(t) = ε_i + (C_i(t) - r_i)·δ_i``.
* **Rule MM-2 / IM-2** — synchronizing.  Every ``τ`` seconds the server
  broadcasts a time request to its neighbours.  The pluggable
  :class:`~repro.core.sync.SynchronizationPolicy` decides what to do with
  the replies: incrementally (MM) or as a completed round (IM and the
  baselines).
* **Section 3 recovery** — on detecting an inconsistency, optionally fetch
  the time unconditionally from a third server chosen by a
  :class:`~repro.core.recovery.RecoveryStrategy`.

Correctness bookkeeping subtleties faithfully reproduced:

* Round trips are measured on the *local clock* (``ξ^i_j``) and inflated by
  ``(1 + δ_i)`` wherever the rules say so.
* After a reset the server re-reads its clock to obtain ``r_i``: a clock
  that "refuses to change its value when reset" (a failure mode from
  Section 1.1) therefore silently corrupts the server's error bookkeeping —
  exactly the hazard the paper describes.
* Batch policies receive replies *aged* to the round's end: each reply's
  centre is advanced by the local clock's elapsed time since receipt and
  its error widened by ``δ_i`` times that elapsed time, so correctness is
  preserved while the round is open.

Everything else a server can do — hardening, authentication, rate
tracking, discipline, self-stabilisation, Byzantine tolerance, holdover,
admission control, slew honesty — is a :class:`Stage`: a plain object
handed to the constructor (``stages=``) that implements any subset of
the one hook table below (:data:`HOOKS`).  There is one server class;
capabilities compose by being in the list.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Sequence

from ..clocks.base import Clock
from ..core.recovery import RecoveryStrategy
from ..core.sync import LocalState, Reply, SynchronizationPolicy
from ..network.transport import Network
from ..simulation.engine import SimulationEngine
from ..simulation.process import SimProcess
from ..simulation.trace import TraceRecorder
from ..telemetry.instruments import (
    NULL_SERVER_TELEMETRY,
    RoundTelemetry,
    ServerTelemetry,
)
from .idspace import RECOVERY_ID_SPACE, NonceSequence, RequestIdAllocator
from .messages import ReplyStatus, RequestKind, TimeReply, TimeRequest

# Identity tests against a module global: reading ``RequestKind.POLL``
# goes through the enum metaclass, several times a plain global's cost.
_POLL, _CLIENT = RequestKind.POLL, RequestKind.CLIENT


@dataclass
class _PendingReply:
    """A batch-policy reply held until the round completes."""

    reply: Reply
    local_at_receipt: float


@dataclass
class _PollRound:
    """State of one open synchronization round."""

    round_id: int
    sent_local: Dict[str, float] = field(default_factory=dict)
    nonces: Dict[str, int] = field(default_factory=dict)
    outstanding: set[str] = field(default_factory=set)
    unsent: set[str] = field(default_factory=set)  # transport-dropped at send
    pending: list[_PendingReply] = field(default_factory=list)
    timers: list = field(default_factory=list)  # events cancelled at close
    closed: bool = False
    tele: Optional[RoundTelemetry] = None  # span context (None when disabled)

    def cancel_timers(self) -> None:
        """Drop the round's scheduled events so a completed round does not
        linger on the engine heap (closure retention under high volume)."""
        for event in self.timers:
            event.cancel()
        self.timers.clear()


@dataclass
class ServerStats:
    """Counters for analysis and tests — the only count of each decision
    (the telemetry handle reads them at scrape time)."""

    rounds: int = 0
    replies_handled: int = 0
    resets: int = 0
    rejects: int = 0  # rule MM-2 kept its own interval over the reply
    inconsistencies: int = 0
    recovery_resets: int = 0
    requests_answered: int = 0
    polls_sent: int = 0  # poll requests the transport accepted
    polls_unsent: int = 0  # poll requests the transport dropped at send time
    polls_pruned: int = 0  # pending slots dropped on mid-round neighbour loss
    invalid_replies: int = 0  # rejected by _validate_reply or _admit_reply
    invalid_poll_replies: int = 0  # ... of which answered a poll
    replies_adopted: int = 0  # rule MM-2 reset to the reply
    replies_inconsistent: int = 0  # rule MM-2 found the reply inconsistent
    replies_received: int = 0  # held for a batch policy's round close
    requests_refused: int = 0  # inbound requests rejected by _admit_request
    # requests_answered by request kind
    poll_answers: int = 0
    client_answers: int = 0
    recovery_answers: int = 0

    @property
    def sync_resets(self) -> int:
        """Rule MM-2/IM-2 adoptions: the resets recovery did not make."""
        return self.resets - self.recovery_resets


def garbage_rejection(reply: TimeReply) -> Optional[str]:
    """Why ``⟨C_j, E_j⟩`` is no interval at all, or None.

    A non-finite clock value, or a non-finite or negative error, cannot
    become a :class:`~repro.core.intervals.TimeInterval`; every server
    refuses such a reply, whatever its stages.
    """
    if not math.isfinite(reply.clock_value):
        return "non-finite clock value"
    if not math.isfinite(reply.error):
        return "non-finite error"
    if reply.error < 0.0:
        return "negative error"
    return None


class Stage:
    """One capability of a :class:`TimeServer` (docs/tutorial.md, "Writing
    a stage").

    A plain object that owns its configuration, state, counters and
    checkpoint fields and implements any subset of :data:`HOOKS`.  The
    server's constructor attaches its stages in list order (a stage
    finds the earlier ones it relies on with ``server.stage(cls)``),
    then binds every name in :attr:`exports` on itself
    (``server.x = stage.x``): the flat surface telemetry, the fault
    injector and the experiments probe by name.  Bound once — so export
    methods and objects mutated in place, and keep a scalar the stage
    *rebinds* on the server itself.  No ``__getattr__`` forwards misses
    to the stages instead: merely defining one takes CPython's attribute
    fast path away from every ``self.x`` on the hot path, stage-less
    servers included.
    """

    #: Names bound on the server at attach.
    exports: tuple[str, ...] = ()
    server: "TimeServer"

    def attach(self, server: "TimeServer") -> None:
        """Join ``server``; called once, at its construction."""
        self.server = server

    def need(self, cls):
        """The server's stage of type ``cls``, which this one builds on."""
        stage = self.server.stage(cls)
        if stage is None:
            raise ValueError(
                f"{type(self).__name__} needs a {cls.__name__} earlier in "
                "the stage list"
            )
        return stage

    def checkpoint_fields(self) -> dict:
        """Extra :class:`~repro.recovery.store.Checkpoint` fields to
        persist (collected by the checkpointing stage)."""
        return {}

    def restore_checkpoint(self, checkpoint) -> None:
        """A crashed server is restarting, its volatile state gone:
        ``checkpoint`` is the durable record on a warm restart, None on
        a cold one."""


class Hook(NamedTuple):
    """One row of :data:`HOOKS`: the stage method ``name`` attaches to
    the server method ``method`` under ``rule``, ``when`` = before or
    after the base method.

    ``noop``: the base is the documented no-op or identity, so a sole
    implementing stage's method is bound in its place.
    """

    name: str
    method: str
    rule: str
    when: str = "after"
    noop: bool = False


def _hook(name: str, rule: str, when: str = "after", noop: bool = False) -> Hook:
    """A hook whose stage method carries the server method's own name."""
    return Hook(name, name, rule, when, noop)


#: The extension points of :class:`TimeServer` — the single source for
#: which exist, how stages combine on each and in what order they run
#: (DESIGN.md §2.1 carries this table, test-checked).  Rules:
#:
#: * ``fold`` — each maps the value the previous one produced;
#: * ``first`` — the first non-None verdict wins;
#: * ``notify`` — all are called, results ignored;
#: * ``veto`` — a true result takes the call over: the base method and
#:   every after-hook are skipped;
#: * ``sole`` — at most one stage of a list implements it, bound in the
#:   base no-op's place; a second is a construction error, so no rule
#:   for combining them exists.
#:
#: ``before`` hooks run ahead of the base method, last stage first;
#: ``after`` hooks behind it, first stage first — the order ``super()``
#: gave the class tower this table replaced, the first stage being the
#: innermost class.  Trace rows depend on it (the ``inconsistent`` row's
#: name order; a checkpoint written before the slew rail widens ε).
HOOKS: tuple[Hook, ...] = (
    # Answering requests (rule MM-1).
    Hook("before_message", "on_message", "veto", "before"),
    Hook("before_answer", "_answer", "veto", "before"),
    Hook("after_answer", "_answer", "notify"),
    _hook("_admit_request", "first", noop=True),
    _hook("_reply_extras", "fold"),
    _hook("_prepare_reply", "fold", noop=True),
    # Polling (rule MM-2).
    _hook("_poll_targets", "fold"),
    _hook("_prepare_request", "fold", noop=True),
    _hook("_effective_round_timeout", "fold"),
    _hook("_on_round_started", "notify", noop=True),
    _hook("_may_revive", "sole", noop=True),
    # Judging replies.
    _hook("_validate_reply", "first", "before"),
    _hook("_admit_reply", "sole", noop=True),
    _hook("_peer_rejected", "notify", noop=True),
    _hook("_observe_reply", "notify", noop=True),
    # Closing a round.
    _hook("_on_round_closed", "notify", noop=True),
    _hook("_on_round_outcome", "notify", noop=True),
    Hook("after_round", "_close_round", "notify"),
    # Resets and Section 3 recovery.
    Hook("before_reset", "_apply_reset", "veto", "before"),
    Hook("after_reset", "_apply_reset", "notify"),
    Hook("before_inconsistency", "_note_inconsistency", "fold", "before"),
    Hook("before_recovery_reply", "_handle_recovery_reply", "veto", "before"),
    Hook("before_recovery_timeout", "_recovery_timeout", "veto", "before"),
    # Lifecycle and membership.
    Hook("after_start", "on_start", "notify"),
    Hook("before_leave", "leave", "veto", "before"),
    Hook("after_rejoin", "_rejoin", "notify"),
)


# The combinators: each returns one callable standing in for the method
# (so it takes whatever the method takes, keywords included).  ``calls``
# holds the base method at its place in the order.


def _first(calls):
    def run(*args, **kw):
        for call in calls:
            verdict = call(*args, **kw)
            if verdict is not None:
                return verdict
        return None

    return run


def _notify(calls):
    def run(*args, **kw):
        for call in calls:
            call(*args, **kw)

    return run


def _veto(calls):
    # The base method comes last, and returns None.
    def run(*args, **kw):
        for call in calls:
            if call(*args, **kw):
                return True
        return False

    return run


def _fold_after(inner, hooks):
    def run(*args, **kw):
        value = inner(*args, **kw)
        for hook in hooks:
            value = hook(value)
        return value

    return run


def _fold_before(inner, hooks):
    def run(value):
        for hook in hooks:
            value = hook(value)
        return inner(value)

    return run


_ORDERED = {"first": _first, "notify": _notify, "veto": _veto}


def _maker(hook: Hook):
    """One table row's rule as ``(inner, hooks) -> callable``: ``inner``
    is the base method (or a wrapper around it), ``hooks`` the stages'
    methods in the order they run."""
    if hook.rule == "fold":
        return _fold_before if hook.when == "before" else _fold_after
    combinator = _ORDERED[hook.rule]
    if hook.when == "before":
        return lambda inner, hooks: combinator(hooks + [inner])
    return lambda inner, hooks: combinator([inner] + hooks)


@functools.lru_cache(maxsize=None)
def _plan(kinds: tuple[type, ...]) -> tuple:
    """What a stage list of these classes binds on its server, as
    ``(direct, wrapped)``: ``direct`` holds ``(method, stage method,
    stage index)`` for each sole implementer bound in a no-op's place;
    ``wrapped`` holds ``(method, steps)`` for the rest, ``steps`` being
    one ``(maker, stage method, implementing stage indices in run
    order)`` per table row in play.  Every server of a service carries
    one of a few class lists, so the table is searched once per list,
    not once per server.

    Raises:
        ValueError: If two of the classes implement a ``sole`` row.
    """
    found: Dict[str, list] = {}
    for row in HOOKS:
        indices = [i for i, kind in enumerate(kinds) if hasattr(kind, row.name)]
        if row.rule == "sole" and len(indices) > 1:
            first, second = (kinds[i].__name__ for i in indices[:2])
            raise ValueError(
                f"{row.name} takes a single implementer, but {first} and "
                f"{second} both implement it"
            )
        if indices:
            found.setdefault(row.method, []).append((row, indices))
    direct, wrapped = [], []
    for method, rows in found.items():
        row, indices = rows[0]
        if len(rows) == 1 and len(indices) == 1 and row.noop:
            direct.append((method, row.name, indices[0]))
            continue
        # After-rows first: a veto must wrap the after-hooks it skips.
        rows.sort(key=lambda item: item[0].when == "before")
        steps = tuple(
            (_maker(r), r.name, tuple(ix[::-1] if r.when == "before" else ix))
            for r, ix in rows
        )
        wrapped.append((method, steps))
    return tuple(direct), tuple(wrapped)


class TimeServer(SimProcess):
    """One time server ``S_i``.

    Args:
        engine: The simulation engine.
        name: Server name; must match a topology node.
        clock: The server's hardware clock (any :class:`Clock`, including
            failure wrappers).
        delta: ``δ_i`` — the *claimed* maximum drift rate used by rule MM-1
            and the round-trip inflation.  May be invalid relative to the
            actual clock, which is how the fault experiments are built.
        network: Transport used to reach neighbours.
        policy: Synchronization policy (MM, IM, or a baseline); None makes
            the server answer-only (it never polls) — used for reference
            servers.
        tau: Poll period τ in seconds; required when ``policy`` is not None.
        initial_error: ``ε_i`` at start (the error inherited from however
            the clock was initially set).
        round_timeout: How long a round stays open waiting for replies.
            Defaults to ``min(τ/2, 4·ξ)`` — comfortably beyond the slowest
            round trip yet well inside the period.
        recovery: Strategy consulted on inconsistencies; None disables
            recovery (inconsistent replies are only ignored/logged).
        trace: Optional shared trace recorder.
        poll_jitter: Optional callable giving additive jitter to each poll
            gap, de-phasing the servers' rounds.
        first_poll_at: Absolute time of the first synchronization round
            (defaults to one full period after start); the builder uses it
            to stagger the servers' round phases deterministically.
        telemetry: Per-server telemetry handle (see
            :class:`~repro.telemetry.instruments.ServerTelemetry`); None
            uses the null handle, making every instrument call a no-op.
        stages: The server's capabilities beyond the paper's rules, as
            an ordered :class:`Stage` list (first = innermost; see
            :class:`Hook` for what the order means).  Empty — the
            default — is exactly the paper's server.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        name: str,
        clock: Clock,
        delta: float,
        network: Network,
        policy: Optional[SynchronizationPolicy] = None,
        tau: Optional[float] = None,
        *,
        initial_error: float = 0.0,
        round_timeout: Optional[float] = None,
        recovery: Optional[RecoveryStrategy] = None,
        trace: Optional[TraceRecorder] = None,
        poll_jitter=None,
        first_poll_at: Optional[float] = None,
        telemetry: Optional[ServerTelemetry] = None,
        stages: Sequence[Stage] = (),
    ) -> None:
        super().__init__(engine, name)
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        if initial_error < 0:
            raise ValueError(
                f"initial_error must be non-negative, got {initial_error}"
            )
        if policy is not None and (tau is None or tau <= 0):
            raise ValueError("a polling server needs a positive tau")
        self.clock = clock
        self.delta = float(delta)
        self.network = network
        self.policy = policy
        self.tau = tau
        self.recovery = recovery
        self.trace = trace
        self.telemetry = telemetry if telemetry is not None else NULL_SERVER_TELEMETRY
        self.stats = ServerStats()
        self._poll_jitter = poll_jitter
        self._first_poll_at = first_poll_at
        if round_timeout is None and tau is not None:
            round_timeout = min(tau / 2.0, 4.0 * max(network.xi, 1e-6))
        self._round_timeout = round_timeout
        self._epsilon = float(initial_error)
        self._last_reset_value: Optional[float] = None  # r_i; set on start
        self._round: Optional[_PollRound] = None
        self._round_counter = 0
        self._round_inconsistent: set[str] = set()
        self._prev_round_inconsistent: set[str] = set()
        self._recovery_inflight: Optional[tuple[int, str, float, int]] = None
        self._recovery_timeout_event = None
        # Distinct id space from rounds (see repro.service.idspace).
        self._recovery_ids = RequestIdAllocator(RECOVERY_ID_SPACE)
        # Per-request freshness nonces: name-salted so two servers never
        # draw the same sequence, counting so one server never reuses one.
        self._nonces = NonceSequence(name)
        self._departed = False
        self._rejoin_count = 0
        self.stages: tuple[Stage, ...] = tuple(stages)
        for stage in self.stages:
            stage.attach(self)
            for export in stage.exports:
                setattr(self, export, getattr(stage, export))
        if self.stages:
            self._install_hooks()
        if self.telemetry.enabled:
            self.telemetry.bind(self)

    # ---------------------------------------------------------------- stages

    def stage(self, cls):
        """The server's stage of type ``cls``, or None when it has none."""
        for stage in self.stages:
            if isinstance(stage, cls):
                return stage
        return None

    def _install_hooks(self) -> None:
        """Bind a dispatcher on this instance for every hooked method
        some stage implements.

        Instance attributes shadow the class's methods, so every
        ``self._validate_reply(...)`` below reaches the dispatcher;
        methods no stage touches keep resolving to the class, and a
        stage-less server never gets here — it runs exactly the code
        below.
        """
        stages, bound = self.stages, self.__dict__
        direct, wrapped = _plan(tuple(map(type, stages)))
        for method, name, index in direct:
            bound[method] = getattr(stages[index], name)
        for method, steps in wrapped:
            run = getattr(type(self), method).__get__(self)
            for make, name, indices in steps:
                run = make(run, [getattr(stages[i], name) for i in indices])
            bound[method] = run

    # ------------------------------------------------------------- MM-1/IM-1

    @property
    def epsilon(self) -> float:
        """The inherited error ``ε_i``."""
        return self._epsilon

    @property
    def last_reset_value(self) -> Optional[float]:
        """``r_i`` — the clock value recorded at the last reset."""
        return self._last_reset_value

    def clock_value(self) -> float:
        """``C_i(now)``."""
        return self.clock.read(self.now)

    def error(self) -> float:
        """``E_i(now) = ε_i + (C_i(now) - r_i)·δ_i`` (rule MM-1)."""
        value = self.clock_value()
        if self._last_reset_value is None:
            return self._epsilon
        age = max(0.0, value - self._last_reset_value)
        return self._epsilon + age * self.delta

    def report(self) -> tuple[float, float]:
        """The rule MM-1 pair ``(C_i(now), E_i(now))``."""
        value = self.clock_value()
        if self._last_reset_value is None:
            error = self._epsilon
        else:
            error = self._epsilon + max(0.0, value - self._last_reset_value) * self.delta
        return value, error

    def local_state(self) -> LocalState:
        """Snapshot for the synchronization policy."""
        value, error = self.report()
        return LocalState(clock_value=value, error=error, delta=self.delta)

    def true_error(self) -> float:
        """Actual offset from real time, ``|C_i(now) - now|`` (oracle only)."""
        return abs(self.clock_value() - self.now)

    def is_correct(self) -> bool:
        """Oracle check: does the reported interval contain the true time?"""
        value, error = self.report()
        return value - error <= self.now <= value + error

    # -------------------------------------------------------------- lifecycle

    def on_start(self) -> None:
        self._last_reset_value = self.clock.read(self.now)
        if self.policy is not None and self.tau is not None:
            self.every(
                self.tau,
                self._start_round,
                first_at=self._first_poll_at,
                jitter=self._poll_jitter,
            )

    # ----------------------------------------------------------- membership

    @property
    def departed(self) -> bool:
        """Whether the server has temporarily left the service."""
        return self._departed

    def leave(self) -> None:
        """Temporarily leave the service (paper Section 1.1: servers "can
        frequently join or leave").

        A departed server neither answers requests nor polls; its clock
        keeps running (and drifting).  Idempotent.
        """
        if self._departed:
            return
        self._departed = True
        for task in self._periodic_tasks:
            task.cancel()
        self._periodic_tasks.clear()
        if self._round is not None:
            if not self._round.closed:
                self.telemetry.round_closed(
                    self._round.tele, self.now, "abandoned"
                )
            self._round.closed = True
            self._round.cancel_timers()
        if self._recovery_inflight is not None:
            self._recovery_inflight = None
            self._cancel_recovery_timer()
            if self.recovery is not None:
                self.recovery.note_timed_out()
        self._trace("leave")

    def rejoin(self, initial_error: float) -> None:
        """Return to service with a fresh inherited error.

        Args:
            initial_error: The rejoining ε_i — typically large (an
                operator-set clock), letting MM/IM pull the server back in
                over subsequent rounds.

        Raises:
            ValueError: If ``initial_error`` is negative.
        """
        if initial_error < 0:
            raise ValueError(
                f"initial_error must be non-negative, got {initial_error}"
            )
        if self._departed:
            self._rejoin(initial_error)

    def _rejoin(self, initial_error: float) -> None:
        """:meth:`rejoin` past its idempotence guard."""
        self._departed = False
        self._rejoin_count += 1
        self._epsilon = float(initial_error)
        self._last_reset_value = self.clock.read(self.now)
        self._round_inconsistent = set()
        self._prev_round_inconsistent = set()
        if self.policy is not None and self.tau is not None:
            # Re-derive a deterministic phase offset: churn tends to fire
            # rejoins at correlated times (e.g. after a healed partition),
            # and restarting every returning server exactly one period
            # later would lock their rounds into the same phase.  Hash the
            # name and rejoin ordinal into a fraction of τ instead.
            key = f"rejoin/{self.name}/{self._rejoin_count}"
            frac = (zlib.crc32(key.encode("utf-8")) % 9973) / 9973.0
            first = self.now + self.tau * (0.5 + 0.5 * frac)
            self.every(
                self.tau,
                self._start_round,
                first_at=first,
                jitter=self._poll_jitter,
            )
        self._trace("rejoin", initial_error=initial_error)

    # --------------------------------------------------------------- serving

    def on_message(self, message, sender) -> None:
        if self._departed:
            return
        if isinstance(message, TimeRequest):
            self._answer(message)
        elif isinstance(message, TimeReply):
            self._handle_reply(message)

    def _answer(self, request: TimeRequest) -> None:
        refusal = self._admit_request(request)
        if refusal is not None:
            self.stats.requests_refused += 1
            self._trace(
                "request_refused", origin=request.origin, reason=refusal
            )
            return
        value, error = self.report()
        stats = self.stats
        stats.requests_answered += 1
        kind = request.kind
        if kind is _POLL:
            stats.poll_answers += 1
        elif kind is _CLIENT:
            stats.client_answers += 1
        else:
            stats.recovery_answers += 1
        reply = TimeReply(
            request_id=request.request_id,
            server=self.name,
            destination=request.origin,
            clock_value=value,
            error=error,
            kind=request.kind,
            delta=self.delta,
            nonce=request.nonce,
            **self._reply_extras(),
        )
        self.network.send(self.name, request.origin, self._prepare_reply(reply))

    def _reply_extras(self) -> dict:
        """Hook: extra :class:`TimeReply` fields for outgoing answers.

        The base server's replies carry exactly the paper's payload;
        :class:`~repro.recovery.server.StabilizingStage` piggybacks its
        merge epoch and census gossip here.
        """
        return {}

    # ------------------------------------------------------------- security

    def _next_nonce(self) -> int:
        """A fresh per-request nonce (name-salted counter, never reused)."""
        return self._nonces.next()

    def _prepare_request(self, request: TimeRequest) -> TimeRequest:
        """Hook: last touch on an outgoing request (the security layer
        signs it here).  The base server sends requests as built."""
        return request

    def _prepare_reply(self, reply: TimeReply) -> TimeReply:
        """Hook: last touch on an outgoing reply (the security layer
        signs it here).  The base server sends replies as built."""
        return reply

    def _admit_request(self, request: TimeRequest) -> Optional[str]:
        """Hook: gate an inbound request before it is answered.

        Return None to serve it or a short reason string to refuse.  The
        base server answers everything (the paper's servers are open);
        the security layer refuses unauthenticated or replayed requests.
        """
        return None

    def _admit_reply(
        self, reply: TimeReply, rtt_local: float
    ) -> tuple[Optional[str], float]:
        """Hook: gate an accepted-looking reply once its RTT is known.

        Runs after :meth:`_validate_reply` (which has no RTT) and before
        the reply reaches the policy.  Returns ``(rejection, widen)``:
        ``rejection`` None to accept, else a short reason; ``widen`` is
        extra error (seconds) to add to the adopted interval — the delay
        guard's compensation for a plausible-but-suspect transit.
        """
        return None, 0.0

    # -------------------------------------------------------------- polling

    def _poll_targets(self) -> list[str]:
        """Hook: which neighbours this round polls.

        The base server polls every topology neighbour; the peer-health
        book excludes quarantined ones.
        """
        return self.network.neighbours(self.name)

    def _effective_round_timeout(self) -> float:
        """Hook: how long the round now starting stays open."""
        return self._round_timeout if self._round_timeout is not None else 1.0

    def _start_round(self) -> None:
        if self.policy is None:
            return
        # A still-open previous round is closed first (slow networks).
        if self._round is not None and not self._round.closed:
            self._complete_round(self._round)
        self._prev_round_inconsistent = self._round_inconsistent
        self._round_inconsistent = set()
        self._round_counter += 1
        round_ = _PollRound(round_id=self._round_counter)
        self._round = round_
        self.stats.rounds += 1
        round_.tele = self.telemetry.round_started(self.now, round_.round_id)
        for destination in self._poll_targets():
            round_.sent_local[destination] = self.clock_value()
            nonce = self._next_nonce()
            round_.nonces[destination] = nonce
            accepted = self.network.send(
                self.name,
                destination,
                self._prepare_request(
                    TimeRequest(
                        request_id=round_.round_id,
                        origin=self.name,
                        destination=destination,
                        kind=RequestKind.POLL,
                        nonce=nonce,
                    )
                ),
            )
            self.telemetry.poll_sent(round_.tele, self.now, destination, accepted)
            if accepted:
                round_.outstanding.add(destination)
                self.stats.polls_sent += 1
            else:
                # The transport dropped the request at send time (link
                # down, partitioned, or lost on the request leg): no reply
                # can ever arrive, so don't make the round wait for one.
                del round_.sent_local[destination]
                round_.unsent.add(destination)
                self.stats.polls_unsent += 1
        if not round_.outstanding and not self._may_revive(round_):
            self._complete_round(round_)
            return
        self._on_round_started(round_)
        timeout = self._effective_round_timeout()
        round_.timers.append(
            self.call_after(timeout, lambda: self._round_timeout_fired(round_))
        )

    def _on_round_started(self, round_: _PollRound) -> None:
        """Hook: called once per round after its requests went out.

        The base server ignores it; the hardening stage arms its
        per-neighbour retry schedule here.
        """

    def _may_revive(self, round_: _PollRound) -> bool:
        """Hook: can send-time-dropped polls still be retransmitted?

        The base server never retries, so a round with nothing outstanding
        is closed immediately; the hardening stage keeps it open while its
        retry schedule could still reach an ``unsent`` neighbour.
        """
        return False

    def _round_timeout_fired(self, round_: _PollRound) -> None:
        if not round_.closed:
            self._complete_round(round_)

    def neighbour_detached(self, neighbour: str) -> None:
        """Topology change: the edge to ``neighbour`` vanished mid-round.

        The topology-driven twin of the send-failure pruning in
        :meth:`_start_round`: once the edge is gone no reply (and no
        retry) can arrive over it, so the pending slot is dropped instead
        of waited out, and the round closes immediately when nothing else
        is outstanding.  A reply already received from the neighbour this
        round stays usable — it was gathered while the edge existed.
        Called by the dynamic-topology layer on both endpoints of every
        removed edge; a no-op when no round is open or the neighbour was
        not being polled.
        """
        round_ = self._round
        if round_ is None or round_.closed:
            return
        pruned = neighbour in round_.outstanding or neighbour in round_.unsent
        if not pruned:
            return
        round_.outstanding.discard(neighbour)
        round_.unsent.discard(neighbour)
        self.stats.polls_pruned += 1
        self._trace("poll_pruned", server=neighbour)
        self.telemetry.reply_verdict(round_.tele, self.now, neighbour, "pruned")
        if not round_.outstanding and not self._may_revive(round_):
            self._complete_round(round_)

    def _handle_reply(self, reply: TimeReply) -> None:
        if reply.kind is RequestKind.RECOVERY:
            self._handle_recovery_reply(reply)
            return
        round_ = self._round
        if (
            round_ is None
            or round_.closed
            or reply.request_id != round_.round_id
            or reply.server not in round_.outstanding
            or reply.nonce != round_.nonces.get(reply.server)
        ):
            return  # late, duplicate, stale, or wrong-nonce reply
        round_.outstanding.discard(reply.server)
        # Judged before its RTT is known, then once it is: one rejection
        # path for both verdicts.
        rejection, widen = self._validate_reply(reply), 0.0
        if rejection is None:
            local_now = self.clock_value()
            rtt_local = max(0.0, local_now - round_.sent_local[reply.server])
            rejection, widen = self._admit_reply(reply, rtt_local)
        if rejection is not None:
            self.stats.invalid_replies += 1
            self.stats.invalid_poll_replies += 1
            self._trace("invalid_reply", server=reply.server, reason=rejection)
            self.telemetry.reply_invalid(round_.tele, self.now, reply.server, rejection)
            if not round_.outstanding and not self._may_revive(round_):
                self._complete_round(round_)
            return
        self.stats.replies_handled += 1
        self.telemetry.reply_observed(
            round_.tele, self.now, reply.server, rtt_local,
            (1.0 + self.delta) * rtt_local,
        )
        self._observe_reply(reply, rtt_local, local_now)
        policy_reply = Reply(
            server=reply.server,
            clock_value=reply.clock_value,
            error=reply.error + widen,
            rtt_local=rtt_local,
        )
        assert self.policy is not None
        if self.policy.incremental:
            outcome = self.policy.on_reply(self.local_state(), policy_reply)
            if not outcome.consistent:
                self.stats.replies_inconsistent += 1
                self.telemetry.reply_verdict(
                    round_.tele, self.now, reply.server, "inconsistent"
                )
                self._note_inconsistency((reply.server,))
            elif outcome.decision is not None:
                self.stats.replies_adopted += 1
                self.telemetry.reply_verdict(
                    round_.tele, self.now, reply.server, "adopted"
                )
                self._apply_reset(outcome.decision, kind="sync")
            else:
                self.stats.rejects += 1
                self._trace("reject", server=reply.server)
                self.telemetry.reply_verdict(
                    round_.tele, self.now, reply.server, "rejected"
                )
        else:
            self.stats.replies_received += 1
            self.telemetry.reply_verdict(
                round_.tele, self.now, reply.server, "received"
            )
            round_.pending.append(
                _PendingReply(reply=policy_reply, local_at_receipt=local_now)
            )
        if not round_.outstanding and not self._may_revive(round_):
            self._complete_round(round_)

    def _validate_reply(self, reply: TimeReply) -> Optional[str]:
        """Hook: sanity-check a poll/recovery reply before it is used.

        Return None to accept or a short reason string to reject.  The
        base server refuses only BUSY replies and garbage (the paper's
        servers trust each other, but no interval has a NaN edge or a
        negative width); the peer-health book
        (:class:`~repro.service.hardening.PeerHealth`) judges every
        reply's ``⟨C_j, E_j⟩`` here first, once.
        """
        if reply.status is ReplyStatus.BUSY:
            # A BUSY reply carries no time at all; it must never reach a
            # synchronization policy or become a recovery reset.
            return "busy reply"
        return garbage_rejection(reply)

    def _complete_round(self, round_: _PollRound) -> None:
        if not round_.closed:
            self._close_round(round_)

    def _close_round(self, round_: _PollRound) -> None:
        """:meth:`_complete_round` past its idempotence guard."""
        round_.closed = True
        round_.cancel_timers()
        self._on_round_closed(round_)
        assert self.policy is not None
        if self.policy.incremental:
            self.telemetry.round_closed(round_.tele, self.now, "ok")
            return  # MM already acted reply-by-reply
        local_now = self.clock_value()
        aged: list[Reply] = []
        for pending in round_.pending:
            elapsed_local = max(0.0, local_now - pending.local_at_receipt)
            original = pending.reply
            aged.append(
                Reply(
                    server=original.server,
                    clock_value=original.clock_value + elapsed_local,
                    error=original.error + self.delta * elapsed_local,
                    rtt_local=original.rtt_local,
                )
            )
        outcome = self.policy.on_round_complete(self.local_state(), aged)
        self._on_round_outcome(outcome)
        if not outcome.consistent:
            self.telemetry.round_closed(round_.tele, self.now, "inconsistent")
            self._note_inconsistency(outcome.conflicting)
            return
        if outcome.decision is not None:
            self.telemetry.round_closed(
                round_.tele, self.now, "reset", source=outcome.decision.source
            )
            self._apply_reset(outcome.decision, kind="sync")
        else:
            self.telemetry.round_closed(round_.tele, self.now, "no_reset")

    def _on_round_closed(self, round_: _PollRound) -> None:
        """Hook: called as a round closes, before the policy's round hook.

        ``round_.outstanding`` still names the neighbours that never
        answered; the peer-health book feeds its scores from it.
        """

    def _on_round_outcome(self, outcome) -> None:
        """Hook: called with every batch round's policy outcome.

        Runs before the server acts on it (reset or recovery).  The base
        server ignores it; :class:`~repro.byzantine.server.
        ByzantineStage` feeds its reputation tracker, fault budget and
        census from the FT-IM classification here.
        """

    # --------------------------------------------------------------- resets

    def _apply_reset(self, decision, kind: str) -> None:
        self.clock.set(self.now, decision.clock_value)
        # Read back: a stuck clock ignores the set, and the server has no
        # way to know — its bookkeeping then underestimates the error,
        # faithfully reproducing the paper's failure mode.
        self._last_reset_value = self.clock.read(self.now)
        self._epsilon = decision.inherited_error
        self.stats.resets += 1
        if kind == "recovery":
            self.stats.recovery_resets += 1
        self._trace(
            "reset",
            from_server=decision.source,
            new_value=decision.clock_value,
            new_error=decision.inherited_error,
            reset_kind=kind,
        )
        ctx = self._round.tele if (kind == "sync" and self._round is not None) else None
        self.telemetry.reset(
            self.now, kind, decision.source, decision.inherited_error, ctx
        )

    # ------------------------------------------------------------- recovery

    def _note_inconsistency(self, conflicting: tuple[str, ...]) -> None:
        self.stats.inconsistencies += 1
        self._trace("inconsistent", conflicting=",".join(conflicting))
        self.telemetry.inconsistency(self.now, conflicting)
        self._round_inconsistent.update(conflicting)
        if self.recovery is None:
            return
        self.recovery.note_inconsistency()
        if self._recovery_inflight is not None:
            return  # one recovery at a time
        # Exclude every neighbour flagged inconsistent this round *or*
        # the previous one, not just the servers in this event: with MM's
        # incremental evaluation the recovery fires on the round's first
        # inconsistent reply, before the second liar of a Figure 4 pair
        # has been flagged this round — the previous round's flags are
        # what stop the arbiter being that second liar.
        flagged = self._round_inconsistent | self._prev_round_inconsistent
        banned = tuple(conflicting) + tuple(
            sorted(flagged - set(conflicting))
        )
        neighbours = self.network.neighbours(self.name)
        arbiter = self.recovery.choose_arbiter(self.name, neighbours, banned)
        if arbiter is None and set(banned) != set(conflicting):
            # The widened ban starved the choice — a server whose *own*
            # clock is bad flags every neighbour, and refusing to recover
            # at all would strand it.  Under the paper's rule some arbiter
            # beats none: retry banning only this event's conflicting set.
            arbiter = self.recovery.choose_arbiter(
                self.name, neighbours, conflicting
            )
        if arbiter is None:
            return
        request_id = self._recovery_ids.allocate()
        nonce = self._next_nonce()
        self._recovery_inflight = (request_id, arbiter, self.clock_value(), nonce)
        self.recovery.note_started()
        self._trace("recovery_start", arbiter=arbiter)
        self.telemetry.recovery(self.now, "started", arbiter)
        self.network.send(
            self.name,
            arbiter,
            self._prepare_request(
                TimeRequest(
                    request_id=request_id,
                    origin=self.name,
                    destination=arbiter,
                    kind=RequestKind.RECOVERY,
                    nonce=nonce,
                )
            ),
        )
        # Give up on a lost recovery reply after the round timeout.
        timeout = self._round_timeout if self._round_timeout is not None else 1.0
        self._recovery_timeout_event = self.call_after(
            timeout, lambda: self._recovery_timeout(request_id)
        )

    def _cancel_recovery_timer(self) -> None:
        """Drop the give-up timer once its recovery attempt is resolved,
        so completed recoveries don't pile timers on the engine heap."""
        if self._recovery_timeout_event is not None:
            self._recovery_timeout_event.cancel()
            self._recovery_timeout_event = None

    def _recovery_timeout(self, request_id: int) -> None:
        if (
            self._recovery_inflight is not None
            and self._recovery_inflight[0] == request_id
        ):
            self._recovery_inflight = None
            self._recovery_timeout_event = None
            if self.recovery is not None:
                self.recovery.note_timed_out()
            self._trace("recovery_timeout")
            self.telemetry.recovery(self.now, "timeout")

    def _handle_recovery_reply(self, reply: TimeReply) -> None:
        if self._recovery_inflight is None:
            return
        request_id, arbiter, sent_local, nonce = self._recovery_inflight
        if (
            reply.request_id != request_id
            or reply.server != arbiter
            or reply.nonce != nonce
        ):
            return
        rejection = self._validate_reply(reply)
        rtt_local = max(0.0, self.clock_value() - sent_local)
        widen = 0.0
        if rejection is None:
            rejection, widen = self._admit_reply(reply, rtt_local)
        if rejection is not None:
            # A poisoned arbiter reply must not become an unconditional
            # reset; abandon the recovery attempt instead.
            self._recovery_inflight = None
            self._cancel_recovery_timer()
            self.stats.invalid_replies += 1
            if self.recovery is not None:
                self.recovery.note_timed_out()
            self._trace("invalid_reply", server=reply.server, reason=rejection)
            self.telemetry.recovery(self.now, "abandoned")
            return
        self._recovery_inflight = None
        self._cancel_recovery_timer()
        inherited = reply.error + widen + (1.0 + self.delta) * rtt_local
        # The paper's rule: reset *unconditionally* to the third server.
        from ..core.sync import ResetDecision

        self._apply_reset(
            ResetDecision(
                clock_value=reply.clock_value,
                inherited_error=inherited,
                source=f"recovery:{arbiter}",
            ),
            kind="recovery",
        )
        if self.recovery is not None:
            self.recovery.note_completed()
        self.telemetry.recovery(self.now, "completed")

    # ----------------------------------------------------------------- hooks

    def _observe_reply(self, reply: TimeReply, rtt_local: float, local_now: float) -> None:
        """Hook: called for every poll reply before policy evaluation.

        The base server ignores it; :class:`~repro.service.rate_tracking.
        RateTrackingStage` feeds its consonance estimators here.
        """

    def _peer_rejected(self, peer: str) -> None:
        """Hook: a stage refused a message from ``peer`` (failed reply
        validation, bad MAC, replay, impossible transit).

        The one rejection path: the peer-health book decays the peer's
        score toward quarantine here, and the Byzantine stage counts it
        as falseticker evidence.  The base server keeps no such books.
        """

    # ---------------------------------------------------------------- trace

    def _trace(self, kind: str, **data) -> None:
        if self.trace is not None:
            self.trace.record(self.now, kind, self.name, **data)


class SlewRail(Stage):
    """Slew-honest MM-1 accounting, for any clock that drains resets.

    A :class:`~repro.clocks.slewing.SlewingClock` *applies* a reset
    gradually: until the slew drains, the reading sits up to
    ``slew_remaining`` short of the adopted target.  The rail charges
    that pending correction to ``ε_i`` at reset time, so ``[C−E, C+E]``
    contains true time throughout the drain (Theorem 1).  Builders add
    it whenever the clock exposes ``slew_remaining`` — it is derived
    from the clock, not selected — and list it behind every stage that
    checkpoints or gates a reset, ahead of any that caches the report.
    """

    def after_reset(self, decision, kind: str) -> None:
        # getattr: the fault injector may have swapped a failure wrapper
        # over the slewing clock mid-run.
        pending = getattr(self.server.clock, "slew_remaining", 0.0)
        if pending:
            self.server._epsilon += abs(pending)

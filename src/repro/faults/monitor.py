"""A continuous correctness oracle for chaos runs.

:class:`InvariantMonitor` is a :class:`~repro.simulation.process.SimProcess`
that periodically asserts, with oracle access to true time, the properties
the paper proves for *correct* servers:

* **Correctness** — every non-faulty server's interval
  ``[C_i - E_i, C_i + E_i]`` contains the true time (Section 2's definition
  of a correct time server);
* **Pairwise consistency** — the intervals of any two non-faulty servers
  intersect (they must: both contain true time);
* **No starvation** — a hardened server's quarantine never leaves it with
  fewer active peers than its configured floor.

"Non-faulty" needs care.  A fault that corrupts one server's clock (a
step, freeze, or race) makes that server legitimately incorrect — *and*
any honest server that later resets from a reply the corrupted or lying
server sent.  The monitor therefore tracks a per-server **taint**: a
server becomes dirty when a self-corrupting fault window opens, and a
dirty (or lied-to) server's resets propagate the taint through the trace's
``reset`` rows.  Only a reset sourced entirely from clean servers — outside
the server's own fault windows — clears it.  Crashed servers are exempt
while departed but keep their taint across a rejoin (the paper's rejoin
takes the operator's word for the new error bound; chaos does not).

Violations are counted, kept as :class:`Violation` rows, and recorded to
the trace (kind ``"invariant_violation"``) so a soak's verdict is part of
its artefact.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.intervals import TimeInterval
from ..service.hardening import HardeningStage
from ..service.server import TimeServer
from ..simulation.engine import SimulationEngine
from ..simulation.process import SimProcess
from ..simulation.trace import TraceRecorder
from ..telemetry.registry import NULL_REGISTRY
from .schedule import FaultSchedule, FaultWindow


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach.

    Attributes:
        time: Real time of the check that caught it.
        check: ``"correctness"``, ``"consistency"``, ``"starvation"`` or
            ``"sync-plane"``.
        servers: The offending server(s).
        detail: Human-readable specifics (offsets, bounds, peer counts).
    """

    time: float
    check: str
    servers: Tuple[str, ...]
    detail: str


@dataclass
class MonitorStats:
    """Aggregate outcome of a monitored run."""

    checks: int = 0
    correctness_violations: int = 0
    consistency_violations: int = 0
    starvation_violations: int = 0
    sync_plane_violations: int = 0
    exemptions: int = 0  # server-checks skipped as faulty/dirty/departed

    @property
    def total_violations(self) -> int:
        return (
            self.correctness_violations
            + self.consistency_violations
            + self.starvation_violations
            + self.sync_plane_violations
        )


class InvariantMonitor(SimProcess):
    """Periodic oracle checks with fault-aware taint tracking.

    Args:
        engine: The simulation engine.
        servers: Servers to watch (all of them; exemptions are computed).
        trace: The service trace — read for ``reset`` rows (taint
            propagation) and written with violations.
        schedule: The fault schedule being injected, so the monitor knows
            which servers are *supposed* to be wrong and when.  None means
            every server is held to the invariants at all times.
        period: Seconds between checks.
        grace: Slack added after a fault window or dirty period when
            deciding whether a reply that fed a reset was poisoned —
            covers lies still in flight when the window closed.
        sync_window: The sync-plane progress assertion: every polling
            server must handle at least one peer poll reply within any
            window of this many seconds (set it to a few τ), else a
            ``"sync-plane"`` violation is raised — the signature of
            client traffic starving rule MM-2/IM-2 rounds.  None (the
            default) disables the check.
        registry: A telemetry registry; every invariant check then exports
            as ``repro_invariant_checks_total{check, outcome}`` with
            outcome ``checked``, ``violated`` or ``exempted`` — the
            violation metrics the nightly soak artifacts archive.  None
            records nothing.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        servers: Dict[str, TimeServer],
        trace: TraceRecorder,
        schedule: Optional[FaultSchedule] = None,
        *,
        period: float = 5.0,
        grace: float = 2.0,
        sync_window: Optional[float] = None,
        name: str = "monitor",
        registry=None,
    ) -> None:
        super().__init__(engine, name)
        self._check_counter = (
            registry if registry is not None else NULL_REGISTRY
        ).counter(
            "repro_invariant_checks_total",
            "Invariant checks by kind and outcome (checked/violated/exempted)",
            ("check", "outcome"),
        )
        self._check_children: Dict[Tuple[str, str], object] = {}
        self.servers = dict(servers)
        self.trace = trace
        self.period = period
        self.grace = grace
        self.stats = MonitorStats()
        self.violations: List[Violation] = []
        windows = schedule.server_fault_windows() if schedule is not None else []
        self._windows: List[FaultWindow] = windows
        self._crash_windows: List[FaultWindow] = (
            schedule.crash_windows() if schedule is not None else []
        )
        # Taint state: closed dirty intervals plus the open one, if any.
        self._dirty_spans: Dict[str, List[Tuple[float, float]]] = {}
        self._dirty_since: Dict[str, float] = {}
        # Window-open events still to be merged into the taint timeline.
        self._pending_opens: List[Tuple[float, int, str]] = [
            (w.start, i, w.server)
            for i, w in enumerate(windows)
            if w.taints_self
        ]
        heapq.heapify(self._pending_opens)
        self._trace_index = 0
        if sync_window is not None and sync_window <= 0:
            raise ValueError(f"sync_window must be positive, got {sync_window}")
        self.sync_window = sync_window
        # Per-server (replies_handled watermark, time it last advanced).
        self._sync_progress: Dict[str, Tuple[int, float]] = {}

    # ------------------------------------------------------------ lifecycle

    def on_start(self) -> None:
        self.every(self.period, self.check_now, first_at=self.now + self.period)

    def _count(self, check: str, outcome: str) -> None:
        """Export one (check, outcome) observation (no-op without registry)."""
        key = (check, outcome)
        child = self._check_children.get(key)
        if child is None:
            child = self._check_counter.labels(check=check, outcome=outcome)
            self._check_children[key] = child
        child.inc()

    # -------------------------------------------------------- taint tracking

    def _mark_dirty(self, server: str, at: float) -> None:
        if server not in self._dirty_since:
            self._dirty_since[server] = at

    def _mark_clean(self, server: str, at: float) -> None:
        start = self._dirty_since.pop(server, None)
        if start is not None:
            self._dirty_spans.setdefault(server, []).append((start, at))

    def is_dirty(self, server: str) -> bool:
        """Whether ``server`` is currently tainted."""
        return server in self._dirty_since

    def _was_dirty_within(self, server: str, start: float, end: float) -> bool:
        since = self._dirty_since.get(server)
        if since is not None and since <= end:
            return True
        return any(
            s <= end and e >= start
            for s, e in self._dirty_spans.get(server, [])
        )

    def _in_fault_window(self, server: str, t: float, *, padded: bool) -> bool:
        pad = self.grace if padded else 0.0
        return any(
            w.server == server and w.start <= t <= w.end + pad
            for w in self._windows
        )

    def _in_crash_window(self, server: str, t: float) -> bool:
        """Whether a scheduled crash keeps ``server`` exempt at ``t``.

        The departed flag covers the downtime itself; the window (plus
        grace) also covers the revival instant, so a restarted server
        re-enters the checks as non-faulty only once this expires.
        """
        return any(
            w.server == server and w.start <= t <= w.end + self.grace
            for w in self._crash_windows
        )

    def _poisoned_source(self, source: str, t: float) -> bool:
        """Whether a reply from ``source`` feeding a reset at ``t`` could
        carry a fault — lying window (padded for flight time) or taint."""
        if self._in_fault_window(source, t, padded=True):
            return True
        return self._was_dirty_within(source, t - self.grace, t)

    @staticmethod
    def reset_sources(from_server: str) -> List[str]:
        """Parse a trace ``reset`` row's source field into server names.

        Handles MM's single name (``"S2"``), IM's edge pair
        (``"S2∩self"``) and recovery resets (``"recovery:S3"``).
        """
        text = from_server.removeprefix("recovery:")
        return [part for part in text.split("∩") if part]

    def _apply_reset(self, server: str, from_server: str, t: float) -> None:
        if server not in self.servers:
            return
        poisoned = False
        for source in self.reset_sources(from_server):
            if source == "self":
                if self.is_dirty(server):
                    poisoned = True
            elif self._poisoned_source(source, t):
                poisoned = True
        # A reset inside the server's own fault window is untrustworthy
        # no matter the source (a frozen clock silently absorbs the set).
        if self._in_fault_window(server, t, padded=False):
            poisoned = True
        if poisoned:
            self._mark_dirty(server, t)
        else:
            # Clean reset: the inherited error covers the round trip, so
            # the new interval contains true time again.
            self._mark_clean(server, t)

    def _advance_taint(self, until: float) -> None:
        """Merge window-opens and trace resets, in time order, up to now."""
        records = self.trace._records
        while True:
            next_open = self._pending_opens[0] if self._pending_opens else None
            row = None
            while self._trace_index < len(records):
                candidate = records[self._trace_index]
                if candidate.kind == "reset":
                    row = candidate
                    break
                self._trace_index += 1
            if next_open is not None and (row is None or next_open[0] <= row.time):
                if next_open[0] > until:
                    break
                heapq.heappop(self._pending_opens)
                self._mark_dirty(next_open[2], next_open[0])
                continue
            if row is None or row.time > until:
                break
            self._trace_index += 1
            self._apply_reset(row.source, row.data.get("from_server", ""), row.time)

    # ---------------------------------------------------------------- checks

    def check_now(self) -> None:
        """Run all invariant checks at the current time (also periodic)."""
        t = self.now
        self._advance_taint(t)
        self.stats.checks += 1
        clean: Dict[str, TimeInterval] = {}
        for name in sorted(self.servers):
            server = self.servers[name]
            if (
                server.departed
                or self.is_dirty(name)
                or self._in_crash_window(name, t)
            ):
                self.stats.exemptions += 1
                self._count("correctness", "exempted")
                continue
            value, error = server.report()
            clean[name] = TimeInterval.from_center_error(value, error)
            self._count("correctness", "checked")
            if not (value - error <= t <= value + error):
                self._violation(
                    "correctness",
                    (name,),
                    f"interval [{value - error:.6f}, {value + error:.6f}] "
                    f"misses true time {t:.6f}",
                )
        names = sorted(clean)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                self._count("consistency", "checked")
                if not clean[a].intersects(clean[b]):
                    self._violation(
                        "consistency",
                        (a, b),
                        f"{a}={clean[a]} and {b}={clean[b]} are disjoint",
                    )
        for name in sorted(self.servers):
            server = self.servers[name]
            if server.stage(HardeningStage) is not None:
                if server.departed:
                    self._count("starvation", "exempted")
                else:
                    self._count("starvation", "checked")
                    self._check_starvation(name, server)
        if self.sync_window is not None:
            for name in sorted(self.servers):
                self._check_sync_progress(name, self.servers[name], t)

    def _check_sync_progress(self, name: str, server: TimeServer, t: float) -> None:
        """Assert the sync plane is making progress despite client load.

        A polling server whose ``replies_handled`` counter has not moved
        for a full ``sync_window`` is being starved: its poll requests or
        their replies are dying in overloaded run queues, and its error
        bound ``E`` is growing without bound.  Departed/crashed servers
        are exempt while away; their watermark resets so the window
        restarts from revival.
        """
        if server.policy is None:
            return  # answer-only servers never poll
        handled = server.stats.replies_handled
        if (
            server.departed
            or self._in_crash_window(name, t)
            or self._in_fault_window(name, t, padded=True)
        ):
            self._count("sync-plane", "exempted")
            self._sync_progress.pop(name, None)
            return
        self._count("sync-plane", "checked")
        previous = self._sync_progress.get(name)
        if previous is None or handled > previous[0]:
            self._sync_progress[name] = (handled, t)
            return
        stalled_for = t - previous[1]
        if stalled_for > self.sync_window:
            self._violation(
                "sync-plane",
                (name,),
                f"no poll reply handled for {stalled_for:.1f}s "
                f"(window {self.sync_window:.1f}s, "
                f"watermark {handled})",
            )
            # Restart the window so one stall is one violation per period
            # it persists, not a violation-per-check forever after.
            self._sync_progress[name] = (handled, t)

    def _check_starvation(self, name: str, server: TimeServer) -> None:
        quarantine = server.hardening.quarantine
        if quarantine is None:
            return
        neighbours = server.network.neighbours(name)
        floor = min(quarantine.min_peers, len(neighbours))
        # Recompute what the next round would poll without mutating the
        # server's health records or stats: non-quarantined peers, plus the
        # starvation guard's re-admissions up to the floor.
        active = [
            peer
            for peer in neighbours
            if not (
                peer in server.health
                and server.health[peer].is_quarantined(self.now)
            )
        ]
        effective = max(len(active), floor) if len(neighbours) >= floor else 0
        if effective < floor:
            self._violation(
                "starvation",
                (name,),
                f"only {len(active)} active peers of {len(neighbours)} "
                f"(floor {floor})",
            )

    def _violation(self, check: str, servers: Tuple[str, ...], detail: str) -> None:
        violation = Violation(self.now, check, servers, detail)
        self.violations.append(violation)
        self._count(check, "violated")
        if check == "correctness":
            self.stats.correctness_violations += 1
        elif check == "consistency":
            self.stats.consistency_violations += 1
        elif check == "sync-plane":
            self.stats.sync_plane_violations += 1
        else:
            self.stats.starvation_violations += 1
        self.trace.record(
            self.now,
            "invariant_violation",
            self.name,
            check=check,
            servers=",".join(servers),
            detail=detail,
        )

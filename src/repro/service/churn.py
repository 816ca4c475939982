"""Server churn: the paper's unstable service membership, made executable.

Section 1.1: "The set of servers making up the service is not stable, in
that time servers can frequently join or leave the service."

:class:`ChurnController` is a simulated process that periodically picks a
random eligible server, makes it :meth:`~repro.service.server.TimeServer.leave`,
and schedules its :meth:`~repro.service.server.TimeServer.rejoin` after a
sampled downtime with a configurable rejoin error (an operator sets the
clock of a returning machine by wristwatch, so the error is large and the
synchronization algorithm has to pull the server back in).

The churn experiments measure that MM/IM keep the *remaining* members
correct and synchronized through arbitrary membership noise, and that
rejoining members reconverge within a few poll periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from ..simulation.engine import SimulationEngine
from ..simulation.process import SimProcess
from .server import TimeServer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotation only)
    from ..faults.schedule import FaultSchedule


@dataclass
class ChurnStats:
    """Counters for churn activity.

    Attributes:
        departures: Leave events executed.
        rejoins: Rejoin events executed.
        skipped: Ticks where no eligible server was available.
        avoided_faulted: Candidates excluded because a scheduled
            crash/clock-fault window was active on them at tick time.
    """

    departures: int = 0
    rejoins: int = 0
    skipped: int = 0
    avoided_faulted: int = 0


class ChurnController(SimProcess):
    """Drives leave/rejoin churn over a set of time servers.

    Args:
        engine: The simulation engine.
        servers: The churnable population (reference servers are usually
            excluded by the caller).
        rng: Random stream for victim choice and downtime sampling.
        interval: Mean seconds between departure events (exponential).
        mean_downtime: Mean downtime per departure (exponential).
        rejoin_error: ε_i assigned on rejoin.
        min_alive: Never take the number of present servers below this
            (a service needs a quorum of neighbours to be worth measuring).
        fault_schedule: When the run also has a chaos
            :class:`~repro.faults.schedule.FaultSchedule`, pass it here so
            churn never picks a server inside an active crash or
            clock-fault window — a churn leave stacked on a scheduled
            ``ServerCrash`` would double-count downtime and confuse the
            invariant monitor's exemptions.
        fault_margin: Extra seconds around each fault window during which
            the server also stays off-limits (guards leaves landing just
            before a scheduled crash fires).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        servers: Sequence[TimeServer],
        rng: np.random.Generator,
        *,
        interval: float = 300.0,
        mean_downtime: float = 120.0,
        rejoin_error: float = 1.0,
        min_alive: int = 2,
        fault_schedule: Optional[FaultSchedule] = None,
        fault_margin: float = 0.0,
    ) -> None:
        super().__init__(engine, "churn")
        if interval <= 0 or mean_downtime <= 0:
            raise ValueError("interval and mean_downtime must be positive")
        if rejoin_error < 0:
            raise ValueError(f"rejoin_error must be non-negative, got {rejoin_error}")
        if fault_margin < 0:
            raise ValueError(f"fault_margin must be non-negative, got {fault_margin}")
        self.servers: Dict[str, TimeServer] = {s.name: s for s in servers}
        self._rng = rng
        self.interval = float(interval)
        self.mean_downtime = float(mean_downtime)
        self.rejoin_error = float(rejoin_error)
        self.min_alive = int(min_alive)
        self.fault_margin = float(fault_margin)
        self._fault_windows: Tuple[Tuple[str, float, float], ...] = ()
        if fault_schedule is not None:
            self._fault_windows = tuple(
                (window.server, window.start, window.end)
                for window in (
                    fault_schedule.crash_windows()
                    + fault_schedule.server_fault_windows()
                )
            )
        self.stats = ChurnStats()

    def on_start(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = float(self._rng.exponential(self.interval))
        self.call_after(max(gap, 1e-6), self._tick)

    def _present(self) -> list[TimeServer]:
        return [s for s in self.servers.values() if not s.departed]

    def _in_fault_window(self, name: str, time: float) -> bool:
        """Whether a scheduled crash/clock fault owns ``name`` at ``time``."""
        margin = self.fault_margin
        return any(
            server == name and start - margin <= time <= end + margin
            for server, start, end in self._fault_windows
        )

    def _tick(self) -> None:
        present = self._present()
        # Servers inside a scheduled fault window are not churnable: the
        # injector owns their downtime.  With no schedule attached the
        # eligible set equals the present set and victim draws are
        # bit-identical to the pre-schedule behaviour.
        eligible = [s for s in present if not self._in_fault_window(s.name, self.now)]
        self.stats.avoided_faulted += len(present) - len(eligible)
        if len(present) <= self.min_alive or not eligible:
            self.stats.skipped += 1
        else:
            victim = eligible[int(self._rng.integers(len(eligible)))]
            victim.leave()
            self.stats.departures += 1
            downtime = float(self._rng.exponential(self.mean_downtime))
            self.call_after(
                max(downtime, 1e-6), lambda v=victim: self._bring_back(v)
            )
        self._schedule_next()

    def _bring_back(self, server: TimeServer) -> None:
        if server.departed:
            server.rejoin(self.rejoin_error)
            self.stats.rejoins += 1

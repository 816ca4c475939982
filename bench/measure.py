"""What a lap records and how a run's figures are read off its laps.

Host noise on a shared box only ever slows a step down, and it comes in
bursts: on the 2-vCPU sandbox a step runs either at full speed or about
a third slower for anything from milliseconds to a whole run, so a mean
or a median flips with the share of disturbed steps (inter-quartile
spread over ten runs: 20 % for the median step, 4 % for the fast
decile).  Every rate and latency is therefore reported at the **fast
decile over the run's steps** — the rate one step in ten exceeds, the
latency one step in ten beats — which is the program's cost when the
host leaves it alone; everything a step does (GC included) is still in
that step.  ROADMAP item 1 asks for min-of-k for the same reason; a
decile is the minimum with the lucky outliers left out.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: A lap's steps are cut into this many slices for the latency percentiles.
LATENCY_SLICES = 10


@dataclass
class Lap:
    """What one lap measured.  Times are host seconds.

    ``steps`` holds one duration per timed step on the workload's time
    base and ``step_events``/``step_queries`` what each step completed;
    ``wall_s``/``cpu_s`` cover the same timed window.  ``latencies`` is
    the live workload's per-query send->reply times, one list per step.
    """

    setup_s: float
    steps: List[float]
    step_events: List[int]
    step_queries: List[int]
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    server_errors: List[float]
    client_errors: List[float]
    behaviour: Dict[str, int] = field(default_factory=dict)
    stats: Dict[str, float] = field(default_factory=dict)
    worker_rss_kb: int = 0
    latencies: Optional[List[List[float]]] = None

    @property
    def events(self) -> int:
        return sum(self.step_events)

    @property
    def queries(self) -> int:
        return sum(self.step_queries)


def repeat_laps(lap: Callable[..., Lap], seed: int, seconds: float, tracer) -> List[Lap]:
    """Laps until another would overrun ``seconds`` (always at least one)."""
    laps: List[Lap] = []
    started = time.perf_counter()
    while True:
        laps.append(lap(seed, tracer))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(laps) > seconds:
            return laps


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(share * len(ordered)) - 1))]


def fast_rate(laps: Sequence[Lap], counts: str) -> float:
    """Per-step ``counts / duration``, at the fast decile over all steps."""
    return percentile(
        [
            count / duration
            for lap in laps
            for count, duration in zip(getattr(lap, counts), lap.steps)
        ],
        0.90,
    )


def latency_slices(lap: Lap) -> List[List[float]]:
    """Latency samples in time order, a slice at a time: the live lap's
    per-step query latencies; elsewhere a step *is* the caller-visible
    unit of progress, so its duration is the sample."""
    if lap.latencies is not None:
        return lap.latencies
    size = max(1, len(lap.steps) // LATENCY_SLICES)
    return [lap.steps[i : i + size] for i in range(0, len(lap.steps), size)]


def fast_latency_us(laps: Sequence[Lap], share: float) -> float:
    """The ``share`` percentile within a slice, at the fast decile over slices."""
    return 1e6 * percentile(
        [percentile(slice_, share) for lap in laps for slice_ in latency_slices(lap)],
        0.10,
    )


def end_to_end(laps: Sequence[Lap]) -> Dict[str, float]:
    """The end-to-end metrics of one run (names as in ``catalog.END_TO_END``)."""
    median = statistics.median
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": median(lap.setup_s for lap in laps),
        "events_per_s": fast_rate(laps, "step_events"),
        "queries_per_s": fast_rate(laps, "step_queries"),
        "latency_p50_us": fast_latency_us(laps, 0.50),
        "latency_p99_us": fast_latency_us(laps, 0.99),
        "peak_rss_mb": (own_kb + max(lap.worker_rss_kb for lap in laps)) / 1024.0,
        "server_error_mean_s": median(statistics.fmean(lap.server_errors) for lap in laps),
        # with no clients: what a client of the median server would be told
        "client_error_median_s": median(
            median(lap.client_errors or lap.server_errors) for lap in laps
        ),
    }

"""Direct timed calls of public functions the workloads do not reach
through a wrapped entry point (the *micro* rows of the layer table).

Inputs are generated at the owning workload's shapes — 3 and 7
overlapping intervals for the client/IM paths, the stratum graph's
10 000 rows and real degree mask for the kernel twins — from the run's
seed.  Each figure is the median of :data:`BATCHES` timed batches.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

import numpy as np

from repro.core.im import IMPolicy
from repro.core.intervals import TimeInterval, intersect_all
from repro.experiments import scale_gauntlet
from repro.kernel import (
    KernelConfig,
    im2_round,
    marzullo_vec,
    mm2_eval,
    plan_kernel,
    transit_edges,
)
from repro.network.delay import UniformDelay
from repro.network.topology import stratum_hierarchy
from repro.service.hardening import HardeningConfig, reply_sanity_rejection
from repro.service.messages import TimeReply

import workloads

BATCHES = 5


def _us_per_call(call: Callable[[], object], calls: int) -> float:
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def hardening(seed: int) -> Dict[str, float]:
    rng = np.random.default_rng([seed, 10])
    config = HardeningConfig()
    reply = TimeReply(
        request_id=1,
        server="S2",
        destination="S1",
        clock_value=100.0 + float(rng.uniform(-1e-3, 1e-3)),
        error=0.05,
        delta=workloads.MESH_DELTA,
    )

    def call():
        return reply_sanity_rejection(
            reply,
            local_value=100.0,
            local_error=0.05,
            delta=workloads.MESH_DELTA,
            xi=2 * workloads.MESH_ONE_WAY,
            max_error=config.max_error,
            plausibility_slack=config.plausibility_slack,
        )

    assert call() is None
    return {
        "service.hardening.reply_sanity_rejection_us_per_call": _us_per_call(call, 20_000)
    }


def marzullo(seed: int) -> Dict[str, float]:
    rng = np.random.default_rng([seed, 11])
    out = {}
    for count in (3, 7):
        centres = rng.uniform(-1e-3, 1e-3, count)
        intervals = [TimeInterval.from_center_error(100.0 + c, 0.01) for c in centres]
        assert intersect_all(intervals) is not None
        out[f"core.marzullo.intersect_all{count}_us_per_call"] = _us_per_call(
            lambda: intersect_all(intervals), 10_000
        )
    return out


def kernel(seed: int) -> Dict[str, float]:
    rng = np.random.default_rng([seed, 12])
    graph = stratum_hierarchy(workloads.KERNEL_SERVERS)
    degrees = np.array([graph.degree(name) for name in sorted(graph.nodes)])
    rows, width = len(degrees), int(degrees.max())
    valid = np.arange(width)[None, :] < degrees[:, None]
    state_values = 1000.0 + rng.uniform(-1e-3, 1e-3, rows)
    state_errors = np.full(rows, 0.01)
    delta = np.full(rows, 1e-5)
    reply_values = state_values[:, None] + rng.uniform(-1e-3, 1e-3, (rows, width))
    reply_errors = np.full((rows, width), 0.01)
    rtts = rng.uniform(0.0, 0.02, (rows, width))
    lo, hi = reply_values - reply_errors, reply_values + reply_errors
    args = (state_values, state_errors, delta, reply_values, reply_errors, rtts)
    calls = {
        "kernel.batch.im2_round_us_per_row": lambda: im2_round(*args, valid),
        "kernel.batch.mm2_eval_us_per_row": lambda: mm2_eval(*args),
        "kernel.batch.transit_edges_us_per_row": lambda: transit_edges(*args[3:], delta),
        "kernel.marzullo_vec.sweep_us_per_row": lambda: marzullo_vec(lo, hi, valid),
    }
    out = {name: _us_per_call(call, 5) / rows for name, call in calls.items()}
    config = KernelConfig(
        graph=graph,
        specs=scale_gauntlet.build_specs(graph),
        policy=IMPolicy(),
        tau=workloads.KERNEL_TAU,
        seed=seed,
        delay=UniformDelay(scale_gauntlet.ONE_WAY),
        trace_enabled=False,
    )
    out["kernel.engine.plan_s"] = _us_per_call(lambda: plan_kernel(config), 1) / 1e6
    return out


#: workload -> the micro rows reported with it
BY_WORKLOAD = {
    "sync_mesh_auth": hardening,
    "service_clients_im": marzullo,
    "kernel_bulk_inproc": kernel,
    "kernel_bulk_2proc": kernel,
}

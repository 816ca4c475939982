"""The traced run: per-layer metrics for one workload.

Laps with the wrappers of ``spans.py`` installed, then one untraced
reference lap in the same process (after, so it is as warm as they
were).  End-to-end metrics never come from here; the reference lap only
supplies what tracing would distort (cycle and latency percentiles) and
the base of ``bench.trace_overhead_share``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

import micro
import spans
import workloads
from measure import Lap, fast_rate, percentile, repeat_laps

OUT_DIR = Path(__file__).resolve().parent / "out"


def run(name: str, seed: int, seconds: float) -> Tuple[List[Lap], Dict[str, float]]:
    lap = workloads.LAPS[name]
    if name == "kernel_bulk_2proc":
        # Worker processes keep their spans to themselves; the same two
        # shards stepped in-process show where a cycle's time goes.
        def lap(seed, tracer):
            return workloads.kernel_lap(seed, tracer, shards=2, processes=0)

    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        laps = repeat_laps(lap, seed, 0.7 * seconds, tracer)  # the rest is the reference's
    finally:
        spans.remove(installed)
    reference = workloads.LAPS[name](seed, None)

    rows = _span_rows(tracer, laps)
    for key in laps[0].stats:
        rows[key] = statistics.fmean(lap_.stats[key] for lap_ in laps)
    if name in micro.BY_WORKLOAD:
        rows.update(micro.BY_WORKLOAD[name](seed))

    window_s = sum(lap_.wall_s for lap_ in laps)
    layers = tracer.self_seconds_by_layer()
    unattributed_s = window_s - sum(layers.values())
    rows["bench.unattributed_share"] = unattributed_s / window_s
    if name == "kernel_bulk_2proc":
        rows.update(_two_process_rows(tracer, reference, laps))
    else:
        counts = "step_events" if reference.behaviour else "step_queries"
        rows["bench.trace_overhead_share"] = (
            fast_rate([reference], counts) / fast_rate(laps, counts) - 1.0
        )
    if name.startswith("kernel"):
        cycle_us = [step * 1e6 for step in reference.steps]
        rows["kernel.shard.cycles"] = len(cycle_us)
        rows["kernel.shard.events_per_cycle"] = reference.events / len(cycle_us)
        rows["kernel.shard.cycle_us_p50"] = statistics.median(cycle_us)
        rows["kernel.shard.cycle_us_p99"] = percentile(cycle_us, 0.99)
    if name == "live_loopback_closed":
        latencies = [value for step in reference.latencies for value in step]
        rows["runtime.engine.latency_p99.9_us"] = percentile(latencies, 0.999) * 1e6
        rows["runtime.engine.cpu_over_wall"] = reference.cpu_s / reference.wall_s
        rows["bench.generator_self_us_per_query"] = (
            layers.get("bench", 0.0) / sum(lap_.queries for lap_ in laps) * 1e6
        )

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{name}.json").write_text(
        json.dumps(
            {
                "workload": name,
                "seed": seed,
                "traced_laps": len(laps),
                "window_wall_s": window_s,
                "layer_self_s": dict(sorted(layers.items())),
                "unattributed_s": unattributed_s,
                "missing_hooks": installed.missing,
                "per_layer": dict(sorted(rows.items())),
                **tracer.dump(),
            },
            indent=1,
        )
        + "\n"
    )
    if installed.missing:
        print("hooks with no target (rows read zero):", ", ".join(installed.missing))
    return [reference] + laps, rows


#: layer-table row -> (span name, what to read off its totals: the call
#: count per traced lap, or self / inclusive microseconds per call)
SPAN_ROWS = {
    "simulation.engine.events": ("simulation.engine:step", "calls"),
    "simulation.engine.step_self_us_per_event": ("simulation.engine:step", "self"),
    "simulation.engine.schedule_calls": ("simulation.engine:schedule", "calls"),
    "simulation.engine.schedule_us_per_call": ("simulation.engine:schedule", "inclusive"),
    "network.transport.sends": ("network.transport:send", "calls"),
    "network.transport.send_self_us_per_call": ("network.transport:send", "self"),
    "service.server.messages": ("service.server:on_message", "calls"),
    "service.server.on_message_self_us_per_call": ("service.server:on_message", "self"),
    "service.server.start_round_self_us_per_call": ("service.server:start_round", "self"),
    "service.server.answer_us_per_call": ("service.server:answer", "inclusive"),
    "security.auth.sign_us_per_call": ("security.auth:sign", "inclusive"),
    "security.auth.verify_us_per_call": ("security.auth:verify", "inclusive"),
    "security.auth.canonical_encode_us_per_call": ("security.auth:canonical_encode", "inclusive"),
    "core.policy.on_reply_calls": ("core.policy:on_reply", "calls"),
    "core.policy.on_reply_us_per_call": ("core.policy:on_reply", "inclusive"),
    "core.policy.on_round_complete_calls": ("core.policy:on_round_complete", "calls"),
    "core.policy.on_round_complete_us_per_call": ("core.policy:on_round_complete", "inclusive"),
    "core.marzullo.intersect_calls": ("core.marzullo:intersect", "calls"),
    "core.marzullo.intersect_us_per_call": ("core.marzullo:intersect", "inclusive"),
    "service.client.asks": ("service.client:ask", "calls"),
    "service.client.ask_self_us_per_call": ("service.client:ask", "self"),
    "service.client.on_message_self_us_per_call": ("service.client:on_message", "self"),
    "simulation.trace.records": ("simulation.trace:record", "calls"),
    "simulation.trace.record_us_per_call": ("simulation.trace:record", "inclusive"),
    "runtime.wire.encode_us_per_call": ("runtime.wire:encode", "inclusive"),
    "runtime.wire.decode_us_per_call": ("runtime.wire:decode", "inclusive"),
    "runtime.transport.send_self_us_per_call": ("runtime.transport:send", "self"),
    "runtime.transport.receive_self_us_per_call": ("runtime.transport:receive", "self"),
    "kernel.shard.step_cycle_self_us_per_call": ("kernel.shard:step_cycle", "self"),
    "kernel.batch.im2_round_us_per_call": ("kernel.batch:im2_round", "inclusive"),
}

#: layer-table row -> the gauge it reports
GAUGE_ROWS = {
    "simulation.engine.heap_depth_max": "simulation.engine:heap_depth_max",
    "runtime.wire.request_bytes": "runtime.wire:request_bytes",
    "runtime.wire.reply_bytes": "runtime.wire:reply_bytes",
}


def _span_rows(tracer: spans.Tracer, laps: List[Lap]) -> Dict[str, float]:
    """Layer rows read off the span totals, for the spans that fired."""
    n = len(laps)
    read = {
        "calls": lambda span: tracer.calls(span) / n,
        "self": tracer.self_us,
        "inclusive": tracer.inclusive_us,
    }
    rows = {
        metric: read[what](span)
        for metric, (span, what) in SPAN_ROWS.items()
        if tracer.calls(span)
    }
    rows.update(
        (metric, tracer.gauges[gauge])
        for metric, gauge in GAUGE_ROWS.items()
        if gauge in tracer.gauges
    )
    if "service.server.messages" in rows:
        # The prediction "auth is never called here" needs an explicit zero.
        rows["security.auth.sign_calls"] = tracer.calls("security.auth:sign") / n
        rows["security.auth.verify_calls"] = tracer.calls("security.auth:verify") / n
    return rows


def _two_process_rows(tracer: spans.Tracer, reference: Lap, twin_laps: List[Lap]) -> Dict[str, float]:
    """What only the two-process kernel run has: barrier and exchange cost.

    ``reference`` ran on two worker processes; ``twin_laps`` stepped the
    same two shards one after the other in this process, so half a twin
    cycle is what a perfect two-way split would take.
    """
    per_shard = [
        stop - start
        for _id, _parent, _root, name, start, stop in tracer.raw
        if name == "kernel.shard:step_cycle"
    ]
    pairs = list(zip(per_shard[0::2], per_shard[1::2]))
    two_process_cycle = statistics.median(reference.steps)
    twin_cycle = statistics.median(step for lap in twin_laps for step in lap.steps)
    return {
        "kernel.shard.imbalance": statistics.fmean(
            max(pair) / statistics.fmean(pair) for pair in pairs
        ),
        "kernel.shard.parallel_overhead_us_per_cycle": (two_process_cycle - twin_cycle / 2.0) * 1e6,
        "kernel.shard.halo_bytes_per_cycle": workloads.halo_bytes_per_cycle(2),  # computed
    }

"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` carries the same names (the smoke test keeps the two
in step); this file is what the code reads, so ``compare.py`` and the
smoke test need no ``repro`` import.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: How long one run measures (``run_seconds`` in ``BENCHMARK.json``).
RUN_SECONDS = 20

#: workload -> host time base: "cpu" (``time.process_time``, single-process
#: CPU-bound runs) or "wall" (``time.perf_counter``, where work leaves the
#: process or waits on sockets).  The one-line "why" of each is in
#: ``BENCHMARK.json`` and the README table.
WORKLOADS: Dict[str, str] = {
    "sync_mesh_plain": "cpu",
    "sync_mesh_auth": "cpu",
    "service_clients_im": "cpu",
    "kernel_bulk_inproc": "cpu",
    "kernel_bulk_2proc": "wall",
    "live_loopback_closed": "wall",
}

#: name -> (unit, better, regression bound as a share of the parent's median)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "events_per_s": ("1/s", "higher", 0.15),
    "queries_per_s": ("1/s", "higher", 0.15),
    "latency_p50_us": ("us", "lower", 0.15),
    "latency_p99_us": ("us", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "server_error_mean_s": ("s", "lower", 0.10),
    "client_error_median_s": ("s", "lower", 0.10),
}

#: The workloads each end-to-end metric was defined for (ISSUE table).  On
#: the others the run still reports a value — the driver wants every metric
#: from every workload — whose meaning ``bench/README.md`` spells out.
NATIVE = {
    "events_per_s": {
        "sync_mesh_plain", "sync_mesh_auth", "service_clients_im",
        "kernel_bulk_inproc", "kernel_bulk_2proc",
    },
    "queries_per_s": {"service_clients_im", "live_loopback_closed"},
    "latency_p50_us": {"live_loopback_closed"},
    "latency_p99_us": {"live_loopback_closed"},
    "server_error_mean_s": {
        "sync_mesh_plain", "sync_mesh_auth", "service_clients_im",
        "kernel_bulk_inproc", "kernel_bulk_2proc",
    },
    "client_error_median_s": {"service_clients_im"},
}

_COUNT = ("count", "higher")
_FAULT = ("count", "lower")
_US = ("us", "lower")

#: name -> (unit, better).  Layer = module name; no bounds on these.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "simulation.engine.events": _COUNT,
    "simulation.engine.step_self_us_per_event": _US,
    "simulation.engine.schedule_calls": _COUNT,
    "simulation.engine.schedule_us_per_call": _US,
    "simulation.engine.heap_depth_max": ("count", "lower"),
    "network.transport.sends": _COUNT,
    "network.transport.send_self_us_per_call": _US,
    "network.transport.delivered": _COUNT,
    "network.transport.dropped": _FAULT,
    "service.server.messages": _COUNT,
    "service.server.on_message_self_us_per_call": _US,
    "service.server.start_round_self_us_per_call": _US,
    "service.server.rounds": _COUNT,
    "service.server.resets": _COUNT,
    "service.server.requests_answered": _COUNT,
    "service.server.answer_us_per_call": _US,
    "service.hardening.invalid_replies": _FAULT,
    "service.hardening.retries": _FAULT,
    "service.hardening.quarantines": _FAULT,
    "service.hardening.reply_sanity_rejection_us_per_call": _US,
    "security.auth.sign_calls": _COUNT,
    "security.auth.sign_us_per_call": _US,
    "security.auth.verify_calls": _COUNT,
    "security.auth.verify_us_per_call": _US,
    "security.auth.canonical_encode_us_per_call": _US,
    "security.auth.auth_failures": _FAULT,
    "security.auth.replay_drops": _FAULT,
    "security.auth.delay_widens": _FAULT,
    "core.policy.on_reply_calls": _COUNT,
    "core.policy.on_reply_us_per_call": _US,
    "core.policy.on_round_complete_calls": _COUNT,
    "core.policy.on_round_complete_us_per_call": _US,
    "core.marzullo.intersect_calls": _COUNT,
    "core.marzullo.intersect_us_per_call": _US,
    "core.marzullo.intersect_all3_us_per_call": _US,
    "core.marzullo.intersect_all7_us_per_call": _US,
    "service.client.asks": _COUNT,
    "service.client.ask_self_us_per_call": _US,
    "service.client.on_message_self_us_per_call": _US,
    "service.client.results": _COUNT,
    "service.client.failures": _FAULT,
    "simulation.trace.records": _COUNT,
    "simulation.trace.record_us_per_call": _US,
    "runtime.wire.encode_us_per_call": _US,
    "runtime.wire.decode_us_per_call": _US,
    "runtime.wire.request_bytes": ("B", "lower"),
    "runtime.wire.reply_bytes": ("B", "lower"),
    "runtime.transport.sent": _COUNT,
    "runtime.transport.delivered": _COUNT,
    "runtime.transport.dropped": _FAULT,
    "runtime.transport.decode_errors": _FAULT,
    "runtime.transport.send_self_us_per_call": _US,
    "runtime.transport.receive_self_us_per_call": _US,
    "runtime.engine.events": _COUNT,
    "runtime.engine.poll_rounds": _COUNT,
    "runtime.engine.latency_p99.9_us": _US,
    "runtime.engine.cpu_over_wall": ("ratio", "higher"),
    "kernel.engine.plan_s": ("s", "lower"),
    "kernel.batch.im2_round_us_per_call": _US,
    "kernel.batch.im2_round_us_per_row": _US,
    "kernel.batch.mm2_eval_us_per_row": _US,
    "kernel.batch.transit_edges_us_per_row": _US,
    "kernel.marzullo_vec.sweep_us_per_row": _US,
    "kernel.shard.cycles": _COUNT,
    "kernel.shard.events_per_cycle": _COUNT,
    "kernel.shard.cycle_us_p50": _US,
    "kernel.shard.cycle_us_p99": _US,
    "kernel.shard.step_cycle_self_us_per_call": _US,
    "kernel.shard.imbalance": ("ratio", "lower"),
    "kernel.shard.parallel_overhead_us_per_cycle": _US,
    "kernel.shard.halo_bytes_per_cycle": ("B", "lower"),
    "bench.trace_overhead_share": ("ratio", "lower"),
    "bench.unattributed_share": ("ratio", "lower"),
    "bench.generator_self_us_per_query": _US,
}

"""The telemetry plane: in-sim metrics, poll-round tracing, exporters.

The paper's theorems are statements about live quantities — error bounds
``E_i`` (Theorems 2/3), per-edge asynchronism vs ``ξ + (δ_i + δ_j)τ``
(Theorem 7) — that this package measures *online* instead of replaying
snapshots after the fact:

* :mod:`~repro.telemetry.registry` — labelled counter/gauge/histogram
  families with a streaming P² quantile sketch and a zero-cost
  :class:`~repro.telemetry.registry.NullRegistry`;
* :mod:`~repro.telemetry.tracing` — structured poll-round spans with
  causal parent ids and JSONL export;
* :mod:`~repro.telemetry.exporters` — Prometheus text exposition, JSONL
  event streams, summary snapshots;
* :mod:`~repro.telemetry.instruments` — the wiring: per-server handles,
  the engine observer, the periodic gauge sampler, and the
  :class:`~repro.telemetry.instruments.ServiceTelemetry` bundle that
  :func:`~repro.service.builder.build_service` accepts;
* :mod:`~repro.telemetry.dashboard` — the ``repro top`` terminal view.

See ``docs/observability.md`` for the metric catalogue and span schema.
"""

from .dashboard import render_dashboard, run_top
from .exporters import (
    JsonlEventExporter,
    METRICS_FILENAME,
    SPANS_FILENAME,
    SUMMARY_FILENAME,
    summary_snapshot,
    to_prometheus_text,
    write_telemetry,
)
from .instruments import (
    NULL_SERVER_TELEMETRY,
    NULL_SERVICE_TELEMETRY,
    EngineInstruments,
    RoundTelemetry,
    ServerTelemetry,
    ServiceTelemetry,
    TelemetrySampler,
)
from .registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NullRegistry,
    P2Quantile,
    default_buckets,
)
from .tracing import NULL_TRACER, NullTracer, Span, SpanTracer

__all__ = [
    "Counter",
    "EngineInstruments",
    "Gauge",
    "Histogram",
    "JsonlEventExporter",
    "METRICS_FILENAME",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_SERVER_TELEMETRY",
    "NULL_SERVICE_TELEMETRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "P2Quantile",
    "RoundTelemetry",
    "SPANS_FILENAME",
    "SUMMARY_FILENAME",
    "ServerTelemetry",
    "ServiceTelemetry",
    "Span",
    "SpanTracer",
    "TelemetrySampler",
    "default_buckets",
    "render_dashboard",
    "run_top",
    "summary_snapshot",
    "to_prometheus_text",
    "write_telemetry",
]

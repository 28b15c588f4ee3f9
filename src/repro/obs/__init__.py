"""Observability substrate: tracing spans, metrics, flight log, logging.

Zero-dependency instrumentation threaded through the deploy → ingest →
query pipeline:

- :mod:`repro.obs.trace` — hierarchical monotonic-clock spans,
  exportable as Chrome trace-viewer JSON and a human-readable tree;
- :mod:`repro.obs.metrics` — a process-global but swappable
  :class:`MetricsRegistry` (counters, gauges, fixed-bucket histograms)
  exportable as JSON and Prometheus text format;
- :mod:`repro.obs.instrument` — the :class:`Instrumentation` bundle
  the framework, pipeline, engine and simulator accept (default: the
  no-op :data:`NULL_INSTRUMENTATION`);
- :mod:`repro.obs.logging` — shared stdlib-logging setup with
  ``key=value`` structured extras;
- :mod:`repro.obs.flight` — the always-on bounded query flight
  recorder: a ring of the per-query records themselves
  (:class:`~repro.query.QueryResult`, the one record of a query:
  answer, measured internals, stage times), with slow-query promotion
  to full detail and a memory snapshot;
- :mod:`repro.obs.explain` — the measured query EXPLAIN plan, a view
  over a record and the engine that produced it.
"""

from .explain import QueryExplain, build_explain
from .flight import FlightRecorder, memory_snapshot, query_digest, record_dict
from .instrument import Instrumentation, NULL_INSTRUMENTATION
from .logging import configure as configure_logging
from .logging import get_logger, kv
from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    SECONDS_BUCKETS,
    diff_dumps,
    get_registry,
    set_registry,
    use_registry,
)
from .trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "MetricsRegistry",
    "NULL_INSTRUMENTATION",
    "NULL_TRACER",
    "NullTracer",
    "QueryExplain",
    "SECONDS_BUCKETS",
    "Span",
    "Tracer",
    "build_explain",
    "configure_logging",
    "get_logger",
    "get_registry",
    "kv",
    "memory_snapshot",
    "query_digest",
    "record_dict",
    "set_registry",
    "use_registry",
]

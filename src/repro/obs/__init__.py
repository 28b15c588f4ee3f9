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
- :mod:`repro.obs.timeseries` — :class:`TimeSeriesRecorder`, a ring
  of cumulative registry snapshots that rates, quantiles, SLO windows
  and sensor health are all views over;
- :mod:`repro.obs.slo` — declarative :class:`SLO` objects with
  error-budget/burn-rate evaluation and the :class:`AlertLog`;
- :mod:`repro.obs.health` — per-sensor health scoring and fleet
  rollups over the simulator's per-sensor telemetry;
- :mod:`repro.obs.flight` — the always-on bounded query flight
  recorder: a ring of the per-query records themselves
  (:class:`~repro.query.QueryResult`, the one record of a query:
  answer, measured internals, stage times), with slow-query promotion
  to full detail and a memory snapshot;
- :mod:`repro.obs.explain` — the measured query EXPLAIN plan, a view
  over a record and the engine that produced it;
- :mod:`repro.obs.dashboard` — the self-contained HTML dashboard the
  ``repro monitor`` CLI exports.
"""

from .explain import QueryExplain, build_explain
from .flight import FlightRecorder, memory_snapshot, query_digest, record_dict
from .health import FleetHealth, SensorHealth, fleet_health
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
from .slo import (
    Alert,
    AlertLog,
    AvailabilitySLO,
    SLO,
    SLOStatus,
    ThresholdSLO,
    default_slos,
)
from .timeseries import Sample, SeriesWindow, TimeSeriesRecorder
from .trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Alert",
    "AlertLog",
    "AvailabilitySLO",
    "Counter",
    "DEFAULT_BUCKETS",
    "FleetHealth",
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
    "SLO",
    "SLOStatus",
    "Sample",
    "SensorHealth",
    "SeriesWindow",
    "Span",
    "ThresholdSLO",
    "TimeSeriesRecorder",
    "Tracer",
    "build_explain",
    "configure_logging",
    "default_slos",
    "fleet_health",
    "get_logger",
    "get_registry",
    "kv",
    "memory_snapshot",
    "query_digest",
    "record_dict",
    "set_registry",
    "use_registry",
]

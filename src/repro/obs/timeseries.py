"""Time-series sampling of a metrics registry into ring-buffer windows.

The :class:`~repro.obs.MetricsRegistry` is a point-in-time snapshot:
it can say "14 queries have missed" but not "misses started climbing
when sensors began crashing".  :class:`TimeSeriesRecorder` closes that
gap by periodically *sampling* a registry into fixed-capacity ring
buffers — one aligned :class:`Sample` per tick, holding

- **counter rates** — the per-second delta of every counter since the
  previous tick (and the raw cumulative totals, which the SLO layer
  differences over arbitrary windows);
- **gauge last-values**;
- **histogram quantiles** — :meth:`Histogram.quantile` at the
  configured points (p50/p95/p99 by default), plus the cumulative
  bucket counts so windowed threshold fractions stay computable.

All series share the recorder's tick timestamps ("aligned multi-series
snapshots"): a metric that first appears mid-run reads as ``None`` for
the ticks before its birth.  The ring buffer (``deque(maxlen=...)``)
bounds memory regardless of run length; :meth:`to_json` exports the
whole window as a JSON-safe dict for results files and the HTML
dashboard.

Sampling cost is one pass over the registry's instruments per tick —
independent of how many events/queries ran between ticks
(``tests/test_telemetry.py`` counts the entries a tick visits).
"""

from __future__ import annotations

import bisect
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .metrics import MetricsRegistry, _flat_name, get_registry

#: Quantile points sampled from every histogram by default.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

#: Default ring capacity: at one sample per second this holds the last
#: four minutes; at the monitor's per-round cadence, the whole run.
DEFAULT_CAPACITY = 240


def base_name(flat: str) -> str:
    """The metric name of a flat ``name{labels}`` series key."""
    brace = flat.find("{")
    return flat if brace < 0 else flat[:brace]


@dataclass(frozen=True)
class Sample:
    """One aligned tick: every instrument's value at the same instant."""

    #: Tick time on the recorder's clock (monotonic seconds).
    t: float
    #: Seconds since the previous tick (0.0 on the first).
    dt: float
    #: Counter flat-name → per-second rate over the last tick interval.
    rates: Mapping[str, float] = field(default_factory=dict)
    #: Counter flat-name → cumulative value at this tick.
    totals: Mapping[str, float] = field(default_factory=dict)
    #: Gauge flat-name → last value.
    gauges: Mapping[str, float] = field(default_factory=dict)
    #: ``"flat:p95"`` → histogram quantile at this tick.
    quantiles: Mapping[str, float] = field(default_factory=dict)
    #: Histogram flat-name → cumulative per-bucket counts (incl. the
    #: +Inf overflow slot), for windowed threshold fractions.
    hist_buckets: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    #: Histogram flat-name → (cumulative count, cumulative sum).
    hist_counts: Mapping[str, Tuple[int, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class SeriesWindow:
    """One named series extracted over the recorder's ticks."""

    name: str
    times: Tuple[float, ...]
    #: ``None`` where the metric did not exist yet at that tick.
    values: Tuple[Optional[float], ...]

    @property
    def last(self) -> Optional[float]:
        for value in reversed(self.values):
            if value is not None:
                return value
        return None


class TimeSeriesRecorder:
    """Samples a :class:`MetricsRegistry` into aligned ring buffers."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        capacity: int = DEFAULT_CAPACITY,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if capacity < 2:
            raise ValueError("recorder capacity must be >= 2")
        self.registry = registry if registry is not None else get_registry()
        self.capacity = capacity
        self.quantiles = tuple(quantiles)
        self.clock = clock
        self._samples: Deque[Sample] = deque(maxlen=capacity)
        #: Histogram flat-name → bucket upper bounds (for thresholds).
        self._hist_uppers: Dict[str, Tuple[float, ...]] = {}
        #: Cached ``(flat_name, instrument)`` views of the registry,
        #: rebuilt only when an instrument family grows — flat-name
        #: formatting and sort order are paid per new instrument, not
        #: per tick (the ≤5% sampling-overhead budget).
        self._view_sizes: Tuple[int, int, int] = (-1, -1, -1)
        self._counter_view: List[Tuple[str, Any]] = []
        self._gauge_view: List[Tuple[str, Any]] = []
        self._hist_view: List[Tuple[str, Any]] = []

    def _refresh_views(self) -> None:
        """Sync the flat-name views with the registry's instruments."""
        registry = self.registry
        families = (
            registry._counters, registry._gauges, registry._histograms
        )
        sizes = tuple(len(family) for family in families)
        if sizes != self._view_sizes:
            self._counter_view, self._gauge_view, self._hist_view = (
                [
                    (_flat_name(name, key), instrument)
                    for (name, key), instrument in sorted(family.items())
                ]
                for family in families
            )
            self._view_sizes = sizes

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, now: Optional[float] = None) -> Sample:
        """Take one aligned snapshot of every instrument."""
        t = self.clock() if now is None else now
        previous = self._samples[-1] if self._samples else None
        dt = (t - previous.t) if previous is not None else 0.0

        self._refresh_views()
        totals: Dict[str, float] = {
            flat: counter.value for flat, counter in self._counter_view
        }
        if previous is not None and dt > 0:
            before = previous.totals
            rates = {
                flat: (value - before.get(flat, 0.0)) / dt
                for flat, value in totals.items()
            }
        else:
            rates = dict.fromkeys(totals, 0.0)

        gauges = {flat: gauge.value for flat, gauge in self._gauge_view}

        quantile_values: Dict[str, float] = {}
        hist_buckets: Dict[str, Tuple[int, ...]] = {}
        hist_counts: Dict[str, Tuple[int, float]] = {}
        q_labels = [f":p{_q_label(q)}" for q in self.quantiles]
        for flat, hist in self._hist_view:
            self._hist_uppers.setdefault(flat, tuple(hist.uppers))
            for q, suffix in zip(self.quantiles, q_labels):
                quantile_values[flat + suffix] = hist.quantile(q)
            running = 0
            cumulative: List[int] = []
            for count in hist.counts:
                running += count
                cumulative.append(running)
            hist_buckets[flat] = tuple(cumulative)
            hist_counts[flat] = (hist.count, hist.sum)

        taken = Sample(
            t=t,
            dt=dt,
            rates=rates,
            totals=totals,
            gauges=gauges,
            quantiles=quantile_values,
            hist_buckets=hist_buckets,
            hist_counts=hist_counts,
        )
        self._samples.append(taken)
        return taken

    # ------------------------------------------------------------------
    # Window access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Tuple[Sample, ...]:
        return tuple(self._samples)

    @property
    def latest(self) -> Optional[Sample]:
        return self._samples[-1] if self._samples else None

    def window_bounds(
        self, window_s: Optional[float] = None
    ) -> Tuple[Optional[Sample], Optional[Sample]]:
        """``(base, last)`` samples spanning the trailing window.

        ``base`` is the newest sample at or before ``last.t - window_s``
        (falling back to the oldest retained sample), so deltas
        ``last - base`` cover at least the requested window where the
        ring still holds it.  ``window_s=None`` spans the whole ring.
        """
        if not self._samples:
            return None, None
        last = self._samples[-1]
        if window_s is None:
            return self._samples[0], last
        cutoff = last.t - window_s
        base = self._samples[0]
        for candidate in self._samples:
            if candidate.t <= cutoff:
                base = candidate
            else:
                break
        return base, last

    def _extract(
        self, field_name: str, key: str
    ) -> SeriesWindow:
        times = tuple(sample.t for sample in self._samples)
        values = tuple(
            getattr(sample, field_name).get(key) for sample in self._samples
        )
        return SeriesWindow(name=key, times=times, values=values)

    def rate_series(self, metric: str) -> SeriesWindow:
        """Per-second rate of a counter, summed across its label sets."""
        return self._aggregate("rates", metric)

    def total_series(self, metric: str) -> SeriesWindow:
        """Cumulative counter values, summed across label sets."""
        return self._aggregate("totals", metric)

    def gauge_series(self, flat: str) -> SeriesWindow:
        """Last-value series of one gauge (exact flat name)."""
        return self._extract("gauges", flat)

    def quantile_series(self, metric: str, q: float) -> SeriesWindow:
        """One histogram quantile over time (exact flat name)."""
        return self._extract("quantiles", f"{metric}:p{_q_label(q)}")

    def _aggregate(self, field_name: str, metric: str) -> SeriesWindow:
        times = tuple(sample.t for sample in self._samples)
        values: List[Optional[float]] = []
        for sample in self._samples:
            mapping = getattr(sample, field_name)
            matched = [
                value
                for flat, value in mapping.items()
                if base_name(flat) == metric
            ]
            values.append(sum(matched) if matched else None)
        return SeriesWindow(name=metric, times=times, values=tuple(values))

    # ------------------------------------------------------------------
    # Windowed aggregates (the SLO layer's inputs)
    # ------------------------------------------------------------------
    def delta(self, metric: str, window_s: Optional[float] = None) -> float:
        """Counter increase over the window, summed across label sets."""
        base, last = self.window_bounds(window_s)
        if base is None or last is None:
            return 0.0
        total = 0.0
        for flat, value in last.totals.items():
            if base_name(flat) == metric:
                total += value - base.totals.get(flat, 0.0)
        return total

    def threshold_fraction(
        self,
        metric: str,
        threshold: float,
        window_s: Optional[float] = None,
    ) -> Tuple[float, float]:
        """``(good, total)`` histogram observations within the window
        whose value was ``<= threshold`` (by cumulative bucket delta),
        summed across label sets.  ``good`` conservatively counts an
        observation as good only when its whole bucket is under the
        threshold."""
        base, last = self.window_bounds(window_s)
        if base is None or last is None:
            return 0.0, 0.0
        good = 0.0
        total = 0.0
        for flat, buckets in last.hist_buckets.items():
            if base_name(flat) != metric:
                continue
            uppers = self._hist_uppers.get(flat, ())
            base_buckets = base.hist_buckets.get(flat, (0,) * len(buckets))
            count_now = last.hist_counts[flat][0]
            count_before = (
                base.hist_counts[flat][0] if flat in base.hist_counts else 0
            )
            total += count_now - count_before
            # Cumulative count at the last bucket whose upper bound is
            # within the threshold.
            idx = bisect.bisect_right(uppers, threshold) - 1
            if idx >= 0:
                good += buckets[idx] - base_buckets[idx]
        return good, total

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """The whole ring as a JSON-safe dict of aligned arrays."""
        times = [sample.t for sample in self._samples]
        series: Dict[str, Dict[str, Any]] = {}

        def put(kind: str, field_name: str) -> None:
            keys: set = set()
            for sample in self._samples:
                keys.update(getattr(sample, field_name).keys())
            for key in sorted(keys):
                series[key] = {
                    "kind": kind,
                    "values": [
                        _json_scalar(getattr(sample, field_name).get(key))
                        for sample in self._samples
                    ],
                }

        put("counter_rate", "rates")
        put("gauge", "gauges")
        put("histogram_quantile", "quantiles")
        return {
            "capacity": self.capacity,
            "samples": len(self._samples),
            "times": times,
            "series": series,
        }


def _q_label(q: float) -> str:
    """``0.95 -> "95"``, ``0.5 -> "50"``, ``0.999 -> "99.9"``."""
    scaled = q * 100
    if abs(scaled - round(scaled)) < 1e-9:
        return str(int(round(scaled)))
    return f"{scaled:g}"


def _json_scalar(value: Optional[float]) -> Optional[float]:
    if value is None:
        return None
    value = float(value)
    if value != value:  # NaN: JSON has no spelling for it
        return None
    return value

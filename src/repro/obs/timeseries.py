"""Time-series sampling of a metrics registry into a ring of snapshots.

The :class:`~repro.obs.MetricsRegistry` is a point-in-time snapshot:
it can say "14 queries have missed" but not "misses started climbing
when sensors began crashing".  :class:`TimeSeriesRecorder` closes that
gap by periodically *sampling* a registry into a fixed-capacity ring of
:class:`Sample` ticks.  A tick stores cumulative state only — counter
totals, gauge values, and each histogram's cumulative buckets, count
and sum — keyed by the registry's own ``(name, labels)`` keys.

Every derived number is a view over that ring, computed when read:

- :meth:`TimeSeriesRecorder.series` — one metric over the ticks, as a
  rate (Δtotal/Δt between neighbouring ticks), a total, a gauge value
  or a histogram quantile (:func:`~repro.obs.metrics.bucket_quantile`,
  the rule :meth:`Histogram.quantile` uses too);
- :meth:`~TimeSeriesRecorder.delta` and
  :meth:`~TimeSeriesRecorder.threshold_fraction` — counter increase and
  histogram good/total over the trailing :meth:`~TimeSeriesRecorder.window`
  (the SLO layer's inputs).

A metric that first appears mid-run reads as ``None`` for the ticks
before its birth.  The ring (``deque(maxlen=...)``) bounds memory
regardless of run length; :meth:`~TimeSeriesRecorder.to_json` exports
the whole window as JSON-safe aligned arrays.  A tick reads one entry
per instrument, however many events or queries ran between ticks.
"""

from __future__ import annotations

import bisect
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .metrics import (
    LabelKey,
    MetricsRegistry,
    _flat_name,
    bucket_quantile,
    get_registry,
)

#: Quantile points :meth:`TimeSeriesRecorder.to_json` exports per
#: histogram.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

#: Default ring capacity: at one sample per second this holds the last
#: four minutes; at the monitor's per-round cadence, the whole run.
DEFAULT_CAPACITY = 240

#: A registry key: ``(name, labels)``.
Key = Tuple[str, LabelKey]

#: A metric name (every label set of it, summed) or one registry key.
Metric = Union[str, Key]


class HistState(NamedTuple):
    """One histogram's cumulative state at a tick."""

    #: Bucket upper bounds (the instrument's own tuple, not a copy).
    uppers: Tuple[float, ...]
    #: Cumulative count at each bound, then the +Inf overflow slot.
    buckets: Tuple[int, ...]
    count: int
    sum: float


@dataclass(frozen=True)
class Sample:
    """One aligned tick: every instrument's cumulative state."""

    #: Tick time on the recorder's clock (monotonic seconds).
    t: float
    counters: Mapping[Key, float] = field(default_factory=dict)
    gauges: Mapping[Key, float] = field(default_factory=dict)
    histograms: Mapping[Key, HistState] = field(default_factory=dict)


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


def _select(mapping: Mapping[Key, Any], metric: Metric) -> Dict[Key, Any]:
    """The entries of one tick that ``metric`` names."""
    if isinstance(metric, tuple):
        return {metric: mapping[metric]} if metric in mapping else {}
    return {key: value for key, value in mapping.items() if key[0] == metric}


def _view(
    sample: Sample,
    previous: Optional[Sample],
    metric: Metric,
    kind: str,
    q: Optional[float],
) -> Optional[float]:
    """One tick's value of :meth:`TimeSeriesRecorder.series`."""
    if kind == "quantile":
        hists = list(_select(sample.histograms, metric).values())
        if not hists:
            return None
        merged = [sum(column) for column in zip(*(h.buckets for h in hists))]
        return bucket_quantile(q, hists[0].uppers, merged)
    family = sample.gauges if kind == "gauge" else sample.counters
    found = _select(family, metric)
    if not found:
        return None
    value = sum(found.values())
    if kind != "rate":
        return value
    if previous is None or sample.t <= previous.t:
        return 0.0
    before = sum(_select(previous.counters, metric).values())
    return (value - before) / (sample.t - previous.t)


class TimeSeriesRecorder:
    """Samples a :class:`MetricsRegistry` into a ring of snapshots."""

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

    def sample(self, now: Optional[float] = None) -> Sample:
        """Take one aligned snapshot of every instrument."""
        registry = self.registry
        taken = Sample(
            t=self.clock() if now is None else now,
            counters={k: c.value for k, c in registry._counters.items()},
            gauges={k: g.value for k, g in registry._gauges.items()},
            histograms={
                key: HistState(
                    hist.uppers,
                    tuple(accumulate(hist.counts)),
                    hist.count,
                    hist.sum,
                )
                for key, hist in registry._histograms.items()
            },
        )
        self._samples.append(taken)
        return taken

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Tuple[Sample, ...]:
        return tuple(self._samples)

    @property
    def latest(self) -> Optional[Sample]:
        return self._samples[-1] if self._samples else None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def series(
        self, metric: Metric, kind: str, q: Optional[float] = None
    ) -> SeriesWindow:
        """``metric`` at every tick, as ``kind``:

        - ``"rate"`` — per-second counter increase since the previous
          tick (0.0 on the first);
        - ``"total"`` — cumulative counter value;
        - ``"gauge"`` — gauge value;
        - ``"quantile"`` — the ``q``-quantile of the histogram.

        A metric name sums its label sets (merges their buckets, for a
        quantile); a ``(name, labels)`` key selects one instrument.
        """
        if kind not in ("rate", "total", "gauge", "quantile"):
            raise ValueError(f"unknown series kind {kind!r}")
        values: List[Optional[float]] = []
        previous: Optional[Sample] = None
        for sample in self._samples:
            values.append(_view(sample, previous, metric, kind, q))
            previous = sample
        return SeriesWindow(
            name=metric if isinstance(metric, str) else _flat_name(*metric),
            times=tuple(sample.t for sample in self._samples),
            values=tuple(values),
        )

    def window(
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
        base = self._samples[0]
        if window_s is not None:
            for candidate in self._samples:
                if candidate.t > last.t - window_s:
                    break
                base = candidate
        return base, last

    def delta(
        self, metric: Metric, window_s: Optional[float] = None
    ) -> float:
        """Counter increase over the window, summed across label sets."""
        base, last = self.window(window_s)
        if base is None:
            return 0.0
        return float(
            sum(_select(last.counters, metric).values())
            - sum(_select(base.counters, metric).values())
        )

    def threshold_fraction(
        self,
        metric: Metric,
        threshold: float,
        window_s: Optional[float] = None,
    ) -> Tuple[float, float]:
        """``(good, total)`` histogram observations within the window
        whose value was ``<= threshold`` (by cumulative bucket delta),
        summed across label sets.  ``good`` conservatively counts an
        observation as good only when its whole bucket is under the
        threshold."""
        base, last = self.window(window_s)
        good = total = 0.0
        if base is None:
            return good, total
        for key, state in _select(last.histograms, metric).items():
            before = base.histograms.get(key)
            total += state.count - (before.count if before else 0)
            # The last bucket whose upper bound is within the threshold.
            idx = bisect.bisect_right(state.uppers, threshold) - 1
            if idx >= 0:
                good += state.buckets[idx] - (
                    before.buckets[idx] if before else 0
                )
        return good, total

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """The whole ring as a JSON-safe dict of aligned arrays: every
        counter as a rate, every gauge, and every histogram at the
        recorder's quantile points."""
        series: Dict[str, Dict[str, Any]] = {}

        def put(name: str, kind: str, key: Key, view: str, q=None) -> None:
            values = self.series(key, view, q).values
            series[name] = {
                "kind": kind,
                "values": [_json_scalar(value) for value in values],
            }

        for key in self._keys("counters"):
            put(_flat_name(*key), "counter_rate", key, "rate")
        for key in self._keys("gauges"):
            put(_flat_name(*key), "gauge", key, "gauge")
        for key in self._keys("histograms"):
            for q in self.quantiles:
                name = f"{_flat_name(*key)}:p{_q_label(q)}"
                put(name, "histogram_quantile", key, "quantile", q)
        return {
            "capacity": self.capacity,
            "samples": len(self._samples),
            "times": [sample.t for sample in self._samples],
            "series": series,
        }

    def _keys(self, family: str) -> List[Key]:
        """Every key of one instrument family in the ring, by flat name."""
        keys = {key for tick in self._samples for key in getattr(tick, family)}
        return sorted(keys, key=lambda key: _flat_name(*key))


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

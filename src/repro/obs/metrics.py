"""Process-global, swappable metrics registry (counters/gauges/histograms).

Zero-dependency instrument set modelled on the Prometheus client
surface, sized for the hot paths of this codebase:

- :class:`Counter` — monotone ``inc(n)`` (floats allowed, so seconds
  totals work);
- :class:`Gauge` — ``set(v)`` / ``inc(n)``;
- :class:`Histogram` — fixed upper-bound buckets, cumulative on export.

Instruments are memoised per ``(name, labels)`` inside a
:class:`MetricsRegistry`, so call sites may either cache the instrument
reference (hot loops) or re-fetch it on every use (one dict lookup).
The registry exports as JSON (:meth:`MetricsRegistry.snapshot`) and
Prometheus text exposition format (:meth:`MetricsRegistry.to_prometheus`).

The *process-global* registry is swappable: :func:`get_registry` /
:func:`set_registry` / the :func:`use_registry` context manager.  The
default global registry is a real :class:`MetricsRegistry` (increments
are a dict hit + an add, cheap enough for per-query accounting); tests
and the CLI swap in a fresh registry to isolate counts.  Objects that
cache instrument references at construction time (compiled forms,
engines) keep writing to the registry that was current when they were
built — swap the registry *before* building the pipeline you want
measured.
"""

from __future__ import annotations

import bisect
import contextlib
import math
from itertools import accumulate
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets: powers-of-2-ish span covering message
#: counts, hop counts and boundary lengths at every benchmark scale.
DEFAULT_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000)

#: Wall-time buckets (seconds) for latency histograms: per-query times
#: span tens of microseconds (compiled batch) to tens of milliseconds
#: (python planner on large boundaries).
SECONDS_BUCKETS = (
    1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.5, 1.0, 5.0,
)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value (int or float)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram (cumulative ``le`` buckets on export)."""

    __slots__ = ("name", "labels", "uppers", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.uppers: Tuple[float, ...] = tuple(sorted(buckets))
        #: Per-bucket (non-cumulative) counts + one overflow slot.
        self.counts: List[int] = [0] * (len(self.uppers) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times."""
        self.counts[bisect.bisect_left(self.uppers, value)] += count
        self.sum += value * count
        self.count += count

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at +Inf."""
        return list(zip(self.uppers + (math.inf,), accumulate(self.counts)))


class MetricsRegistry:
    """Memoised instrument store with JSON/Prometheus exports."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
            if help:
                self._help.setdefault(name, help)
        return instrument

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
            if help:
                self._help.setdefault(name, help)
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                name, key[1], buckets
            )
            if help:
                self._help.setdefault(name, help)
        return instrument

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter or gauge (0 if never touched)."""
        key = (name, _label_key(labels))
        instrument = self._counters.get(key) or self._gauges.get(key)
        return instrument.value if instrument is not None else 0

    # ------------------------------------------------------------------
    # Structured dumps and cross-process merging
    # ------------------------------------------------------------------
    def dump(self) -> Dict[str, Any]:
        """Round-trippable instrument dump (unlike :meth:`snapshot`,
        which flattens labels into display names).

        Each entry keeps ``(name, labels, state)`` separately so
        :meth:`absorb` can re-key it into another registry — the
        transport the sharded query engine uses to merge worker-process
        metrics into the parent registry.  JSON-safe and picklable.
        """
        return {
            "counters": [
                [name, list(labels), counter.value]
                for (name, labels), counter in sorted(self._counters.items())
            ],
            "gauges": [
                [name, list(labels), gauge.value]
                for (name, labels), gauge in sorted(self._gauges.items())
            ],
            "histograms": [
                [
                    name,
                    list(labels),
                    {
                        "uppers": list(hist.uppers),
                        "counts": list(hist.counts),
                        "sum": hist.sum,
                        "count": hist.count,
                    },
                ]
                for (name, labels), hist in sorted(self._histograms.items())
            ],
            "help": dict(self._help),
        }

    def absorb(
        self, dump: Dict[str, Any], skip: Sequence[str] = ()
    ) -> None:
        """Merge a :meth:`dump` (or :func:`diff_dumps` delta) into this
        registry: counters and histogram buckets *add*, gauges take the
        dumped value.  Metric names in ``skip`` are ignored — the
        sharded engine uses this to keep per-query accounting it
        already did in the parent from being double counted.
        """
        skipped = set(skip)
        for name, labels, value in dump.get("counters", ()):
            if name in skipped or not value:
                continue
            key = (name, tuple((k, v) for k, v in labels))
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = Counter(name, key[1])
            counter.value += value
        for name, labels, value in dump.get("gauges", ()):
            if name in skipped:
                continue
            key = (name, tuple((k, v) for k, v in labels))
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = Gauge(name, key[1])
            gauge.value = value
        for name, labels, state in dump.get("histograms", ()):
            if name in skipped or not state["count"]:
                continue
            key = (name, tuple((k, v) for k, v in labels))
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(
                    name, key[1], buckets=state["uppers"]
                )
            if tuple(hist.uppers) != tuple(state["uppers"]):
                raise ValueError(
                    f"histogram {name} bucket mismatch: "
                    f"{hist.uppers} vs {tuple(state['uppers'])}"
                )
            for i, count in enumerate(state["counts"]):
                hist.counts[i] += count
            hist.sum += state["sum"]
            hist.count += state["count"]
        for name, text in dump.get("help", {}).items():
            self._help.setdefault(name, text)

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dict of every instrument (for results files)."""
        out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, labels), counter in sorted(self._counters.items()):
            out["counters"][_flat_name(name, labels)] = counter.value
        for (name, labels), gauge in sorted(self._gauges.items()):
            out["gauges"][_flat_name(name, labels)] = gauge.value
        for (name, labels), hist in sorted(self._histograms.items()):
            out["histograms"][_flat_name(name, labels)] = {
                "sum": hist.sum,
                "count": hist.count,
                "buckets": [
                    [upper if math.isfinite(upper) else "+Inf", cum]
                    for upper, cum in hist.cumulative()
                ],
            }
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        emitted_meta: set = set()

        def meta(name: str, kind: str) -> None:
            if name in emitted_meta:
                return
            emitted_meta.add(name)
            if name in self._help:
                lines.append(f"# HELP {name} {self._help[name]}")
            lines.append(f"# TYPE {name} {kind}")

        for (name, labels), counter in sorted(self._counters.items()):
            meta(name, "counter")
            lines.append(
                f"{name}{_prom_labels(labels)} {_prom_value(counter.value)}"
            )
        for (name, labels), gauge in sorted(self._gauges.items()):
            meta(name, "gauge")
            lines.append(
                f"{name}{_prom_labels(labels)} {_prom_value(gauge.value)}"
            )
        for (name, labels), hist in sorted(self._histograms.items()):
            meta(name, "histogram")
            for upper, cumulative in hist.cumulative():
                le = "+Inf" if math.isinf(upper) else _prom_value(upper)
                bucket_labels = _prom_labels(labels + (("le", le),))
                lines.append(f"{name}_bucket{bucket_labels} {cumulative}")
            lines.append(
                f"{name}_sum{_prom_labels(labels)} {_prom_value(hist.sum)}"
            )
            lines.append(f"{name}_count{_prom_labels(labels)} {hist.count}")
        return "\n".join(lines) + ("\n" if lines else "")


#: The process-global registry.  Real by default (increments are cheap
#: and the figure benchmarks snapshot it into their results files).
_GLOBAL_REGISTRY: MetricsRegistry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The current process-global registry."""
    return _GLOBAL_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one."""
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return previous


@contextlib.contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Temporarily install ``registry`` (default: a fresh one)."""
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def diff_dumps(
    new: Dict[str, Any], old: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """The delta between two :meth:`MetricsRegistry.dump` snapshots.

    Counters and histogram states subtract (instruments absent from
    ``old`` pass through whole); gauges keep the latest value.  Feeding
    the result to :meth:`MetricsRegistry.absorb` applies exactly the
    activity that happened between the two dumps — how a long-lived
    worker process ships each batch's metrics without resending its
    lifetime totals.
    """
    if old is None:
        return new

    def keyed(entries):
        return {(name, tuple(map(tuple, labels))): state
                for name, labels, state in entries}

    old_counters = keyed(old.get("counters", ()))
    counters = []
    for name, labels, value in new.get("counters", ()):
        delta = value - old_counters.get(
            (name, tuple(map(tuple, labels))), 0
        )
        if delta:
            counters.append([name, labels, delta])

    old_hists = keyed(old.get("histograms", ()))
    histograms = []
    for name, labels, state in new.get("histograms", ()):
        previous = old_hists.get((name, tuple(map(tuple, labels))))
        if previous is None:
            if state["count"]:
                histograms.append([name, labels, state])
            continue
        count = state["count"] - previous["count"]
        if not count:
            continue
        histograms.append(
            [
                name,
                labels,
                {
                    "uppers": state["uppers"],
                    "counts": [
                        n - o
                        for n, o in zip(state["counts"], previous["counts"])
                    ],
                    "sum": state["sum"] - previous["sum"],
                    "count": count,
                },
            ]
        )

    return {
        "counters": counters,
        "gauges": [list(entry) for entry in new.get("gauges", ())],
        "histograms": histograms,
        "help": dict(new.get("help", {})),
    }


# ----------------------------------------------------------------------
def _prom_labels(labels: LabelKey) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape(value)}"' for key, value in labels
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _prom_value(value: float) -> str:
    if isinstance(value, float):
        # Exposition-format spellings for non-finite values: Prometheus
        # parsers accept +Inf/-Inf/NaN, not Python's repr() inf/nan.
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if not value.is_integer():
            return repr(value)
    return str(int(value))


def _flat_name(name: str, labels: LabelKey) -> str:
    return name + _prom_labels(labels)

"""Learned count stores: drop-in replacements for exact tracking forms.

:class:`ModeledCountStore` fits one regression model per directed
crossing stream of a tracking form and answers the
:class:`~repro.forms.EdgeCountStore` interface by inference — the
offline compaction evaluated in Figs. 11e/14c/14d.

:class:`BufferedEdgeStore` is the online variant of §4.8: a bounded
buffer of recent events per stream plus a model over the previous
flushed window, answering range queries over (at most) the last ``2n``
events with the buffer answered exactly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..errors import ModelError
from ..forms import TrackingForm
from ..forms.snapshot import _canonical
from .base import BYTES_PER_PARAMETER, RegressionModel

DirectedEdge = Tuple[Hashable, Hashable]
#: A stream is one direction of one canonical edge.
StreamKey = Tuple[DirectedEdge, bool]

ModelFactory = Callable[[], RegressionModel]


def _stream_key(edge: DirectedEdge) -> StreamKey:
    key, forward = _canonical(edge)
    return (key, forward)


class ModeledCountStore:
    """Per-stream regression models fitted from a tracking form."""

    def __init__(self, models: Dict[StreamKey, RegressionModel]) -> None:
        self._models = models

    @classmethod
    def fit(
        cls, form: TrackingForm, factory: ModelFactory
    ) -> "ModeledCountStore":
        """Fit one model per non-empty direction of every edge."""
        models: Dict[StreamKey, RegressionModel] = {}
        for edge in form.edges():
            plus, minus = form.timestamps(edge)
            if plus:
                models[_stream_key(edge)] = factory().fit(plus)
            if minus:
                models[_stream_key((edge[1], edge[0]))] = factory().fit(minus)
        return cls(models)

    # ------------------------------------------------------------------
    # EdgeCountStore interface
    # ------------------------------------------------------------------
    def count_entering(self, edge: DirectedEdge, t: float) -> float:
        model = self._models.get(_stream_key(edge))
        return model.predict(t) if model is not None else 0.0

    def net_until(self, edge: DirectedEdge, t: float) -> float:
        return self.count_entering(edge, t) - self.count_entering(
            (edge[1], edge[0]), t
        )

    def net_between(self, edge: DirectedEdge, t1: float, t2: float) -> float:
        if t2 < t1:
            raise ModelError(f"inverted interval [{t1}, {t2}]")
        return self.net_until(edge, t2) - self.net_until(edge, t1)

    # ------------------------------------------------------------------
    @property
    def storage_bytes(self) -> int:
        """Total model storage across every stream."""
        return sum(model.storage_bytes for model in self._models.values())

    def storage_profile(self) -> List[int]:
        """Per-edge model storage in units of stored scalars (for the
        Fig. 11e CDF, comparable with TrackingForm.storage_profile)."""
        per_edge: Dict[DirectedEdge, int] = {}
        for (edge, _), model in self._models.items():
            per_edge[edge] = per_edge.get(edge, 0) + (
                model.storage_bytes // BYTES_PER_PARAMETER
            )
        return sorted(per_edge.values())

    def storage_report(self) -> dict:
        """Bytes-per-component accounting in the unified store schema
        (components are the model families in use)."""
        components: Dict[str, int] = {}
        events = 0
        for model in self._models.values():
            name = type(model).__name__
            components[name] = (
                components.get(name, 0) + int(model.storage_bytes)
            )
            events += int(model.event_count)
        return {
            "store": type(self).__name__,
            "events": events,
            "total_bytes": int(sum(components.values())),
            "derived_bytes": 0,
            "components": components,
        }


@dataclass
class _Stream:
    """One direction's online state: flushed-window model + buffer."""

    buffer: List[float] = field(default_factory=list)
    model: Optional[RegressionModel] = None
    #: Events flushed before the current model's window.
    base: int = 0

    def count(self, t: float) -> float:
        if self.buffer and t >= self.buffer[0]:
            in_buffer = bisect.bisect_right(self.buffer, t)
            flushed = (
                self.base + self.model.event_count
                if self.model is not None
                else self.base
            )
            return flushed + in_buffer
        if self.model is not None:
            return self.base + self.model.predict(t)
        return 0.0


class BufferedEdgeStore:
    """Online buffer-and-flush learned store (§4.8).

    Events are exact while in the buffer; each flush refits the model
    on the flushed window of ``buffer_size`` events.  Queries reaching
    further back than the modelled window saturate at the accumulated
    base count — the paper's "at most 2n events in the past" envelope.
    """

    def __init__(
        self, factory: ModelFactory, buffer_size: int = 256
    ) -> None:
        if buffer_size < 1:
            raise ModelError("buffer_size must be >= 1")
        self._factory = factory
        self._buffer_size = buffer_size
        self._streams: Dict[StreamKey, _Stream] = {}

    def record(self, u: Hashable, v: Hashable, t: float) -> None:
        """Record a crossing toward ``v`` at time ``t``."""
        stream = self._streams.setdefault(_stream_key((u, v)), _Stream())
        if stream.buffer and t < stream.buffer[-1]:
            raise ModelError(
                "BufferedEdgeStore requires non-decreasing timestamps "
                "per stream"
            )
        stream.buffer.append(float(t))
        if len(stream.buffer) >= self._buffer_size:
            self._flush(stream)

    def _flush(self, stream: _Stream) -> None:
        if stream.model is not None:
            stream.base += stream.model.event_count
        stream.model = self._factory().fit(stream.buffer)
        stream.buffer = []

    # ------------------------------------------------------------------
    # EdgeCountStore interface
    # ------------------------------------------------------------------
    def count_entering(self, edge: DirectedEdge, t: float) -> float:
        stream = self._streams.get(_stream_key(edge))
        return stream.count(t) if stream is not None else 0.0

    def net_until(self, edge: DirectedEdge, t: float) -> float:
        return self.count_entering(edge, t) - self.count_entering(
            (edge[1], edge[0]), t
        )

    def net_between(self, edge: DirectedEdge, t1: float, t2: float) -> float:
        if t2 < t1:
            raise ModelError(f"inverted interval [{t1}, {t2}]")
        return self.net_until(edge, t2) - self.net_until(edge, t1)

    # ------------------------------------------------------------------
    @property
    def storage_bytes(self) -> int:
        """Models + live buffers (buffers are bounded by construction)."""
        total = 0
        for stream in self._streams.values():
            if stream.model is not None:
                total += stream.model.storage_bytes
            total += len(stream.buffer) * BYTES_PER_PARAMETER
        return total

"""Incremental model learning (§4.8's storage extension).

The paper sketches it directly: *"we can further reduce the storage
space by learning the regressors incrementally. For example, we learn a
model at time t that combines the buffer [t - n, t] and the trained
model at t - n."*  :class:`IncrementalEdgeStore` implements exactly
that: when a stream's buffer fills, the new model is fitted on the
union of (a) synthetic samples drawn from the *old* model's CDF and
(b) the real buffered timestamps — so a single constant-size model
covers the whole history, unlike :class:`~repro.models.BufferedEdgeStore`
whose model only covers the previous window.

The cost is compounding approximation: each refit inherits the previous
model's error.  The companion benchmark quantifies that drift.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..errors import ModelError
from .base import BYTES_PER_PARAMETER, RegressionModel
from .store import ModelFactory, StreamKey, _stream_key

DirectedEdge = Tuple[Hashable, Hashable]


@dataclass
class _IncrementalStream:
    """One direction's state: a whole-history model plus a live buffer."""

    buffer: List[float] = field(default_factory=list)
    model: Optional[RegressionModel] = None

    def count(self, t: float) -> float:
        from_model = self.model.predict(t) if self.model is not None else 0.0
        if self.buffer and t >= self.buffer[0]:
            return from_model + bisect.bisect_right(self.buffer, t)
        return from_model


class IncrementalEdgeStore:
    """Online learned store whose models cover the *entire* history.

    On each flush the previous model is resampled at
    ``resample_points`` quantiles of its domain; those synthetic
    (timestamp, cumulative-count) pairs are concatenated with the real
    buffer and refitted.  Timestamps are expanded so the fitted CDF
    passes through the synthetic quantile points.
    """

    def __init__(
        self,
        factory: ModelFactory,
        buffer_size: int = 256,
        resample_points: int = 64,
    ) -> None:
        if buffer_size < 1:
            raise ModelError("buffer_size must be >= 1")
        if resample_points < 2:
            raise ModelError("resample_points must be >= 2")
        self._factory = factory
        self._buffer_size = buffer_size
        self._resample_points = resample_points
        self._streams: Dict[StreamKey, _IncrementalStream] = {}

    # ------------------------------------------------------------------
    def record(self, u: Hashable, v: Hashable, t: float) -> None:
        """Record a crossing toward ``v`` at time ``t``."""
        stream = self._streams.setdefault(
            _stream_key((u, v)), _IncrementalStream()
        )
        if stream.buffer and t < stream.buffer[-1]:
            raise ModelError(
                "IncrementalEdgeStore requires non-decreasing timestamps "
                "per stream"
            )
        stream.buffer.append(float(t))
        if len(stream.buffer) >= self._buffer_size:
            self._flush(stream)

    def _flush(self, stream: _IncrementalStream) -> None:
        history = self._resample(stream.model)
        combined = np.sort(np.concatenate([history, stream.buffer]))
        stream.model = self._factory().fit(combined)
        stream.buffer = []

    def _resample(self, model: Optional[RegressionModel]) -> np.ndarray:
        """Synthetic timestamps whose empirical CDF tracks the model.

        Inverts the model's CDF at ``event_count`` evenly spaced count
        levels (capped at ``resample_points`` via repetition weights) by
        bisection over the model's time domain.
        """
        if model is None or model.event_count == 0:
            return np.zeros(0)
        total = model.event_count
        t_lo, t_hi = model.time_domain
        levels = np.arange(1, total + 1, dtype=float)
        grid = np.linspace(t_lo, t_hi, self._resample_points)
        cdf = np.array([model.predict(t) for t in grid])
        cdf = np.maximum.accumulate(cdf)
        # Invert by interpolation: timestamp at which count reaches L.
        timestamps = np.interp(levels, cdf, grid, left=t_lo, right=t_hi)
        return timestamps

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
        total = 0
        for stream in self._streams.values():
            if stream.model is not None:
                total += stream.model.storage_bytes
            total += len(stream.buffer) * BYTES_PER_PARAMETER
        return total

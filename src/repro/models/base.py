"""Regression models over per-edge timestamp CDFs (§4.8, Fig. 9).

Each crossing-event stream of a sensing edge is a monotone sequence of
timestamps; its cumulative count function ``C(γ(e), t)`` is a CDF-like
step function.  A :class:`RegressionModel` compresses that step
function into a constant number of parameters and answers counts by
inference in O(1) (or O(log segments)), trading a small count error for
a storage footprint independent of the number of events — the paper's
99.96% storage reduction.

All models clamp predictions to ``[0, n]`` and to zero before the first
event, which also keeps the derived range counts sensible.
"""

from __future__ import annotations

import abc
from typing import Sequence, Tuple

import numpy as np

from ..errors import ModelError

#: Bytes per stored model parameter (float64).
BYTES_PER_PARAMETER = 8


class RegressionModel(abc.ABC):
    """A constant-size approximation of a cumulative count function."""

    #: Short name used in experiment tables.
    name: str = "model"

    def __init__(self) -> None:
        self._n: int = 0
        self._t_min: float = 0.0
        self._t_max: float = 0.0
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, timestamps: Sequence[float]) -> "RegressionModel":
        """Fit on an ascending timestamp sequence; returns self.

        The cumulative target for timestamp ``timestamps[i]`` is
        ``i + 1`` (counts are right-continuous: at the event instant the
        event is already counted).
        """
        times = np.asarray(timestamps, dtype=float)
        if times.ndim != 1:
            raise ModelError("timestamps must be one-dimensional")
        if len(times) and np.any(np.diff(times) < 0):
            times = np.sort(times)
        self._n = len(times)
        if self._n:
            self._t_min = float(times[0])
            self._t_max = float(times[-1])
            self._fit(times, np.arange(1, self._n + 1, dtype=float))
        self._fitted = True
        return self

    def predict(self, t: float) -> float:
        """Approximate ``C(γ, t)`` — events with timestamp <= t."""
        if not self._fitted:
            raise ModelError(f"{self.name} model used before fit()")
        if self._n == 0 or t < self._t_min:
            return 0.0
        if t >= self._t_max:
            return float(self._n)
        return float(np.clip(self._predict(t), 0.0, self._n))

    # ------------------------------------------------------------------
    @property
    def event_count(self) -> int:
        return self._n

    @property
    def time_domain(self) -> Tuple[float, float]:
        """``(first, last)`` event timestamps the model was fitted on."""
        return (self._t_min, self._t_max)

    @property
    @abc.abstractmethod
    def parameter_count(self) -> int:
        """Number of stored parameters (excluding the 3 bookkeeping
        scalars n/t_min/t_max, which every model shares)."""

    @property
    def storage_bytes(self) -> int:
        """Total storage: parameters + the 3 bookkeeping scalars."""
        return (self.parameter_count + 3) * BYTES_PER_PARAMETER

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _fit(self, times: np.ndarray, cumulative: np.ndarray) -> None:
        """Fit internals; called only with at least one event."""

    @abc.abstractmethod
    def _predict(self, t: float) -> float:
        """Raw prediction for ``t_min <= t < t_max`` (clamped by caller)."""

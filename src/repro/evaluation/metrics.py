"""Evaluation metrics (§5.1.4)."""

from __future__ import annotations

from typing import Optional


def relative_error(actual: float, estimate: float) -> Optional[float]:
    """``|η - η̂| / η`` (§5.1.4); None when the actual count is zero.

    Queries whose exact count is zero carry no relative-error signal
    and are excluded from aggregates, mirroring the paper's use of real
    counts from the unsampled graph as the denominator.
    """
    if actual == 0:
        return None
    return abs(actual - estimate) / abs(actual)


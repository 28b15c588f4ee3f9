"""The one rank kernel: a vectorised segmented binary search.

Theorems 4.2/4.3 ask, per boundary edge and direction, for a *rank* —
how many of that edge's sorted crossing times are ``<= t`` — and every
store in this package keeps its per-edge series as segments of one
contiguous column.  :func:`segmented_rank` answers all of a chain's
ranks together: each **lane** is one ``[lo, hi)`` segment with its own
threshold, every lane advances one halving per numpy step, and the
loop ends after ``ceil(log2(longest segment))`` steps.  Cost follows
the number of lanes (the boundary length), not the events on them, and
nothing per-event is allocated.

Callers: the plain CSR form (timestamp column), the compressed form
(per-block first-tick directory), the count sketch (touched-bin
column) and, through its blocks, the streaming store.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def segmented_rank(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Per lane, ``#{i in [lo, hi): values[i] <= t}`` — what
    ``np.searchsorted(values[lo:hi], t, side="right")`` returns, for
    all lanes at once.

    ``values[lo:hi]`` must be ascending for every lane; ``lo``/``hi``
    are equal-length 1-D integer arrays (``lo == hi`` is an empty
    segment) and ``t`` is a scalar or one threshold per lane.
    """
    n = hi - lo
    longest = int(n.max()) if n.size else 0
    if not longest:
        return n
    base = lo.copy()
    # Invariant: everything before ``base`` is <= t, everything from
    # ``base + n`` on is > t.  A lane already down to n <= 1 halves by
    # zero and stands still (its probe reads a neighbour, times zero).
    for _ in range((longest - 1).bit_length()):
        half = n >> 1
        n -= half
        half *= values[base + half - 1] <= t
        base += half
    # One candidate left per non-empty lane; empty lanes may sit past
    # the column's end, hence the clip.
    base += (values[np.minimum(base, len(values) - 1)] <= t) & (n > 0)
    base -= lo
    return base


def time_lanes(
    lo: np.ndarray, hi: np.ndarray, times: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every segment against every time: ``(lo, hi, t)`` lanes in
    segment-major order, so a rank reshapes to ``(segments, times)``."""
    m = times.size
    if m == 1:
        return lo, hi, np.full(lo.shape, times.ravel()[0])
    return np.repeat(lo, m), np.repeat(hi, m), np.tile(times.ravel(), lo.size)

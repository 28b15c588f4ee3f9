"""The one rank kernel: a vectorised segmented binary search.

Theorems 4.2/4.3 ask, per boundary edge and direction, for a *rank* —
how many of that edge's sorted crossing times are ``<= t`` — and every
store in this package keeps its per-edge series as segments of one
contiguous column.  :func:`segmented_rank` answers all of a chain's —
or a whole batch of chains' — ranks together: each **lane** is one
``[lo, hi)`` segment with its own threshold, every lane advances one
halving per numpy step, and a lane stops being carried once its own
segment is exhausted.  Cost follows ``sum(log2(segment))`` over the
lanes (the boundary length), not the events on them, and nothing
per-event is allocated.

Callers: the plain CSR form (timestamp column), the compressed form
(per-block first-tick directory), the count sketch (touched-bin
column) and, through its blocks, the streaming store.  The lane
builders beside the kernel — :func:`time_lanes` for one chain,
:func:`chain_lanes` for a batch of them — and :func:`csr_take` are
shared by those stores and the query planner.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Lanes from which the kernel orders them by segment length, so that a
#: step touches only the lanes still searching.  Below it a step is
#: numpy call overhead, not element work, and ordering would only add
#: calls (a single query's chain is a few hundred lanes).
_ORDER_FROM = 1024


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
    steps = (longest - 1).bit_length()
    order = None
    if n.size >= _ORDER_FROM and steps > 1:
        # A segment of length L is down to one candidate after
        # bit_length(L - 1) halvings: longest first, step s then works
        # on the prefix of lanes that need more than s of them.
        need = np.frexp(np.maximum(n - 1, 0))[1].astype(np.uint8)
        order = np.argsort(need, kind="stable")[::-1]
        live = n.size - np.cumsum(np.bincount(need, minlength=steps + 1))
        lo, n, t = lo[order], n[order], np.broadcast_to(t, n.shape)[order]
    base = lo.copy()

    def halve(b, k, t):
        # Invariant: everything before ``b`` is <= t, everything from
        # ``b + k`` on is > t.  A lane already down to k <= 1 halves by
        # zero and stands still (its probe reads a neighbour, times
        # zero).
        half = k >> 1
        k -= half
        half *= values[b + half - 1] <= t
        b += half

    if order is None:
        for _ in range(steps):
            halve(base, n, t)
    else:
        for m in live[:steps].tolist():
            halve(base[:m], n[:m], t[:m])
    # One candidate left per non-empty lane; empty lanes may sit past
    # the column's end, hence the clip.
    base += (values[np.minimum(base, len(values) - 1)] <= t) & (n > 0)
    base -= lo
    if order is not None:
        base[order] = base.copy()  # back into the caller's lane order
    return base


def csr_take(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Index array selecting ``starts[i]:starts[i] + lens[i]`` for
    every ``i``, concatenated — rows of a CSR (``starts = offsets[rows]``)
    or any other run of slices of one column."""
    shift = np.cumsum(lens) - lens
    return np.repeat(starts - shift, lens) + np.arange(int(lens.sum()))


def time_lanes(
    rows: np.ndarray, times: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One chain against every time: ``(row, t)`` lanes in row-major
    order, so a rank reshapes to ``(rows, times)``."""
    if times.size == 1:
        return rows, np.full(rows.shape, times.ravel()[0])
    return np.repeat(rows, times.size), np.tile(times.ravel(), rows.size)


def chain_lanes(chains, chain: np.ndarray, times: np.ndarray, n_ids: int):
    """Lanes of a batch.  ``chains`` is a CSR of boundary chains —
    chain ``c`` is ``wall_ids[offsets[c]:offsets[c + 1]]`` with the
    matching ``signs``, and ``chains[c]`` that pair as an object with
    those two attributes — and evaluation point ``p`` is chain
    ``chain[p]`` at ``times[p]``: one lane per edge of the point's
    chain, point-major, edges interned after the store froze its id
    universe (``>= n_ids``: they have no events) left out.  Returns
    ``(point, wall, sign, time)`` per lane."""
    lens = chains.offsets[chain + 1] - chains.offsets[chain]
    point = np.repeat(np.arange(chain.size), lens)
    lane = csr_take(chains.offsets[chain], lens)
    walls = chains.wall_ids[lane].astype(np.int64)
    known = np.flatnonzero(walls < n_ids)
    if known.size < walls.size:
        point, lane, walls = point[known], lane[known], walls[known]
    return point, walls, chains.signs[lane], times[point]

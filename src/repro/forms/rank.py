"""The rank kernels: one index search for a query, a segmented binary
search for a batch.

Theorems 4.2/4.3 ask, per boundary edge and direction, for a *rank* —
how many of that edge's sorted crossing times are ``<= t`` — and every
store in this package keeps its per-edge series as segments (rows) of
one contiguous column.  Each **lane** is one row with its own
threshold, and a chain's — or a whole batch of chains' — lanes rank
together, by one of two strategies chosen from the lane count alone:

- below :data:`_ORDER_FROM` lanes (a single query's chain, a few
  hundred), :class:`RankIndex` answers from an ordering computed once
  per column: two C searches for any number of lanes, where a halving
  would spend ~9 steps of numpy call overhead;
- from :data:`_ORDER_FROM` lanes on (a batch), :func:`segmented_rank`
  halves every lane at once, lanes ordered by segment length, at a
  cost that follows ``sum(log2(segment))`` over the lanes and nothing
  per event.

The two meet near 1500 lanes on the e2e ``adhoc_cold`` world, in the
order a batch builds its lanes (sooner for lanes in random order);
both return what ``np.searchsorted(row, t, side="right")`` does, ties
included, for any threshold that is not NaN.

Callers: the plain CSR form (timestamp column), the compressed form
(per-row unit directory), the count sketch (touched-bin
column) and, through its blocks, the streaming store.  The lane
builders beside the kernels — :func:`time_lanes` for one chain,
:func:`chain_lanes` for a batch of them — and :func:`csr_take` are
shared by those stores and the query planner; :func:`grid_floor` puts
a time on the compressed store's and the sketch's integer grids, and
:func:`narrowest` picks the width of every stored integer column.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Lanes from which a rank halves (:func:`segmented_rank`, lanes
#: ordered by segment length so that a step touches only the lanes
#: still searching) instead of searching the index (:class:`RankIndex`).
#: Measured on the e2e ``adhoc_cold`` world (2-vCPU guest), on a cold
#: 500-query batch's lanes in the order :func:`chain_lanes` builds
#: them: 1024 lanes rank in 0.15 ms by index and 0.20 ms by halving,
#: 2048 in 0.33 and 0.29 ms, all 73k in 9.0 and 5.9 ms.
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
    lo = lo.astype(np.int64, copy=False)  # a narrow CSR's offsets
    n = hi - lo
    longest = int(n.max()) if n.size else 0
    if not longest:
        return n
    steps = (longest - 1).bit_length()
    # A segment of length L is down to one candidate after
    # bit_length(L - 1) halvings: longest first, step s then works on
    # the prefix of lanes that need more than s of them.
    need = np.frexp(np.maximum(n - 1, 0))[1].astype(np.uint8)
    order = np.argsort(need, kind="stable")[::-1]
    live = n.size - np.cumsum(np.bincount(need, minlength=steps + 1))
    lo, n, t = lo[order], n[order], np.broadcast_to(t, n.shape)[order]
    base = lo.copy()
    for m in live[:steps].tolist():
        # Invariant: everything before ``base`` is <= t, everything
        # from ``base + n`` on is > t.  A lane already down to n <= 1
        # halves by zero and stands still (its probe reads a
        # neighbour, times zero).
        b, k = base[:m], n[:m]
        half = k >> 1
        k -= half
        half *= values[b + half - 1] <= t[:m]
        b += half
    # One candidate left per non-empty lane; empty lanes may sit past
    # the column's end, hence the clip.
    base += (values[np.minimum(base, len(values) - 1)] <= t) & (n > 0)
    base -= lo
    base[order] = base.copy()  # back into the caller's lane order
    return base


class RankIndex:
    """Rank in any row of a column with two searches.

    ``values[offsets[r]:offsets[r + 1]]`` (row ``r``) ascends.  Element
    ``i`` of row ``r`` gets the key ``r * M + g``, ``g`` its place in a
    stable sort of the whole column (``M`` elements); the keys ascend
    over the column.  The values ``<= t`` are exactly the first
    ``s = searchsorted(sorted, t, "right")`` of that sort, so row
    ``r``'s rank of ``t`` is ``searchsorted(keys, r * M + s) -
    offsets[r]``.  Memory: the sorted column plus 4-byte keys while
    ``rows * M < 2**32``, else 8-byte ones — in-memory only, reported
    as ``derived_bytes``.

    ``position`` (each element's ``g``) and ``ordered`` (the sorted
    values) come from the caller when it already holds them — the plain
    form's constructor does — and from one argsort otherwise.  A
    narrow integer column is sorted into int64, the probes' dtype:
    ``searchsorted`` on a uint8 column with int64 probes copies the
    whole column per call (17.5 µs against 3.3 µs on 41.5k bins).
    """

    __slots__ = ("values", "offsets", "sorted", "keys")

    def __init__(self, values, offsets, position=None, ordered=None):
        m = values.size
        if position is None:
            order = np.argsort(values, kind="stable")
            ordered, position = values[order], np.empty_like(order)
            if ordered.dtype.kind in "iu":
                ordered = ordered.astype(np.int64, copy=False)
            position[order] = np.arange(m)
        rows = offsets.size - 1
        dtype = np.uint32 if rows * m < 2 ** 32 else np.int64
        self.keys = np.repeat(np.arange(rows, dtype=dtype), np.diff(offsets))
        self.keys *= dtype(m)
        np.add(self.keys, position, out=self.keys, casting="unsafe")
        self.values, self.offsets, self.sorted = values, offsets, ordered

    @property
    def nbytes(self) -> int:
        return int(self.keys.nbytes + self.sorted.nbytes)

    def rank(self, rows: np.ndarray, t) -> np.ndarray:
        """Per lane, ``#{values in row rows[i] <= t}``: the lanes are
        ``rows`` and ``t`` broadcast against each other (one threshold
        per lane, one for all, or a column of rows against a row of
        times — :func:`time_lanes`).  Searched below
        :data:`_ORDER_FROM` lanes, halved from there on."""
        offsets, lanes = self.offsets, np.broadcast(rows, t)
        if lanes.size >= _ORDER_FROM:
            rows, t = (a.ravel() for a in np.broadcast_arrays(rows, t))
            return segmented_rank(
                self.values, offsets[rows], offsets[rows + 1], t
            ).reshape(lanes.shape)
        probe = rows * np.int64(self.values.size) + np.searchsorted(
            self.sorted, t, side="right"
        )
        probe = probe.astype(self.keys.dtype, copy=False)
        return np.searchsorted(self.keys, probe) - offsets[rows]


def grid_floor(t, width: float) -> np.ndarray:
    """``floor(t / width)`` as int64: times on an integer grid (the
    compressed store's ticks, the sketch's bins), clipped to ``±2**62``
    so that ±inf lands beyond every real grid value and ``q ± 1``
    cannot wrap."""
    limit = float(2 ** 62)
    q = np.floor(np.divide(t, width))
    return np.clip(q, -limit, limit).astype(np.int64)


#: The integer widths a stored column may take, narrowest first.  No
#: ``uint64``: mixed with an int64 operand it promotes to float64.
_WIDTHS = [np.iinfo(dtype) for dtype in "u1 i1 u2 i2 u4 i4".split()]


def narrowest(values) -> np.ndarray:
    """``values`` (integers) as the narrowest integer dtype that holds
    their min and max — what every store keeps its stored integer
    columns at — or as int64 when nothing narrower does."""
    values = np.asarray(values)
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
    fits = [info.dtype for info in _WIDTHS if info.min <= lo <= hi <= info.max]
    return values.astype(fits[0] if fits else np.int64, copy=False)


def csr_take(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Index array selecting ``starts[i]:starts[i] + lens[i]`` for
    every ``i``, concatenated — rows of a CSR (``starts = offsets[rows]``)
    or any other run of slices of one column."""
    shift = np.cumsum(lens) - lens
    return np.repeat(starts - shift, lens) + np.arange(int(lens.sum()))


def time_lanes(
    rows: np.ndarray, times: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One chain against every time: the rows as a column and the
    times as a row, lanes that broadcast to ``(rows, times)`` (a rank
    searches each time once, not once per row)."""
    return rows[:, None], times.ravel()


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

"""The rank kernels and the four stores that answer through them.

Generated (``hypothesis``) and enumerated corner cases for

- :func:`repro.forms.rank.segmented_rank` and
  :class:`repro.forms.rank.RankIndex` against per-segment
  ``np.searchsorted(side="right")``: empty segments, ties with the
  threshold, duplicates, thresholds before the first / after the last
  value and ±inf, lane sets on both sides of ``_ORDER_FROM``, and the
  plain form's constructor-built index against the argsort-built one
  of its ``shm_attach``;
- the plain form's rank path against its merged prefix-sum path and a
  brute-force count, including chain ids interned after compile time;
- the compressed form's directory rank + one-block decode against the
  plain form on the same quantized columns: segment lengths around the
  block size, every delta width 0..33, all-duplicate (zero-payload)
  blocks, and lanes that share blocks on both sides of the per-lane /
  per-block decode switch;
- the vectorised sketch estimate against a brute-force count from the
  raw events, its bound always containing the exact answer;
- the narrow stored columns of the sketch and the compressed form
  against the same stores built at int64, on events whose nets,
  activities and ticks need the wider widths;
- the streaming store's zone maps under out-of-order arrivals
  (overlapping block ranges) and at times exactly on a block's
  ``t_min`` / ``t_max``, against the batch-built form.
"""

from __future__ import annotations

import contextlib
import functools
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_query_planner import _battery, _deployment, _key

from repro.forms import CompiledTrackingForm, CompressedTrackingForm
from repro.forms.rank import _ORDER_FROM, RankIndex, segmented_rank
from repro.forms import succinct
from repro.forms.sketch import EdgeCountSketch
from repro.forms.succinct import _DECODE_LANES
from repro.planar import EdgeInterner
from repro.query import CompiledQueryPlanner, QueryEngine
from repro.shm import destroy_segment
from repro.stream import StreamingEventStore
from repro.trajectories import EventColumns

# A small value range forces duplicates and ties with the threshold.
_values = st.integers(0, 12)
_segments = st.lists(
    st.lists(_values, max_size=40).map(sorted), min_size=1, max_size=12
)


def _interner(n_ids):
    return EdgeInterner((2 * i, 2 * i + 1) for i in range(n_ids))


def _brute(edge_id, direction, t, wall_ids, signs, when):
    """Σ sign · (#entering <= when − #leaving <= when), event by event."""
    total = 0
    for eid, sign in zip(wall_ids, signs):
        on_edge = (edge_id == eid) & (t <= when)
        total += int(sign) * int(
            np.sum(on_edge & (direction == 0))
            - np.sum(on_edge & (direction == 1))
        )
    return total


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------
class TestKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        segments=_segments,
        thresholds=st.lists(st.integers(-1, 13), min_size=12, max_size=12),
        as_float=st.booleans(),
    )
    def test_equals_per_segment_searchsorted(
        self, segments, thresholds, as_float
    ):
        dtype = np.float64 if as_float else np.int64
        values = np.array([v for s in segments for v in s], dtype=dtype)
        lens = np.array([len(s) for s in segments])
        hi = np.cumsum(lens)
        lo = hi - lens
        t = np.array(thresholds[: len(segments)], dtype=dtype)
        expected = [
            np.searchsorted(values[a:b], x, side="right")
            for a, b, x in zip(lo, hi, t)
        ]
        assert segmented_rank(values, lo, hi, t).tolist() == expected
        # One shared scalar threshold, lanes in any order, lanes repeated.
        order = np.random.default_rng(len(values)).permutation(len(lo))
        order = np.concatenate((order, order[:3]))
        assert segmented_rank(
            values, lo[order], hi[order], t[0]
        ).tolist() == [
            np.searchsorted(values[a:b], t[0], side="right")
            for a, b in zip(lo[order], hi[order])
        ]

    def test_no_lanes_and_all_empty(self):
        values = np.arange(5.0)
        none = np.empty(0, dtype=np.int64)
        assert segmented_rank(values, none, none, 1.0).size == 0
        at = np.array([0, 5, 5])  # the last lanes sit past the column
        assert segmented_rank(values, at, at, 9.0).tolist() == [0, 0, 0]
        assert segmented_rank(np.empty(0), at[:1], at[:1], 0.0).tolist() == [0]

    def test_inputs_are_not_modified(self):
        values = np.array([1.0, 2.0, 2.0, 5.0])
        lo, hi = np.array([0, 2]), np.array([2, 4])
        segmented_rank(values, lo, hi, np.array([2.0, 2.0]))
        assert lo.tolist() == [0, 2] and hi.tolist() == [2, 4]


# ----------------------------------------------------------------------
# Plain form: rank path == merged path == brute force
# ----------------------------------------------------------------------
_events = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 1), _values),
    max_size=120,
)


class TestPlainFormRank:
    @settings(max_examples=120, deadline=None)
    @given(
        events=_events,
        chain=st.lists(
            st.tuples(st.integers(0, 8), st.sampled_from([-1, 1])),
            min_size=1, max_size=10,
        ),
        times=st.lists(st.integers(-1, 13), min_size=1, max_size=3),
    )
    def test_rank_merged_and_brute_force_agree(self, events, chain, times):
        events = sorted(events, key=lambda e: e[2])
        edge_id = np.array([e[0] for e in events], dtype=np.int64)
        direction = np.array([e[1] for e in events], dtype=np.int8)
        t = np.array([e[2] for e in events], dtype=np.float64)
        interner = _interner(6)
        form = CompiledTrackingForm(interner, edge_id, direction, t)
        # Ids 6..8 are interned only after compile time: no events.
        for i in range(6, 9):
            interner.intern(2 * i, 2 * i + 1)
        wall_ids = np.array([c[0] for c in chain], dtype=np.int64)
        signs = np.array([c[1] for c in chain], dtype=np.int64)
        when = np.array(times, dtype=np.float64)
        expected = [
            _brute(edge_id, direction, t, wall_ids, signs, x) for x in when
        ]
        first = form.integrate_at_ids(wall_ids, signs, when)  # ranks
        assert len(form._boundaries) == 0
        second = form.integrate_at_ids(wall_ids, signs, when)  # promotes
        assert len(form._boundaries) == 1
        third = form.integrate_at_ids(wall_ids, signs, when)  # hits
        assert first.tolist() == second.tolist() == third.tolist() == expected
        assert form.integrate_until_ids(wall_ids, signs, when[0]) == expected[0]
        assert form.net_total_ids(wall_ids, signs) == _brute(
            edge_id, direction, t, wall_ids, signs, np.inf
        )


# ----------------------------------------------------------------------
# Compressed form: directory rank + one-block decode == plain rank
# ----------------------------------------------------------------------
def _forms(edge_id, direction, t, n_ids, tick_bits=0):
    """(plain, compressed) that never promote: every touch ranks."""
    interner = _interner(n_ids)
    order = np.argsort(t, kind="stable")
    args = (interner, edge_id[order], direction[order], t[order])
    return (
        CompiledTrackingForm(*args, boundary_cache_size=0),
        CompressedTrackingForm(
            *args, boundary_cache_size=0, tick_bits=tick_bits
        ),
    )


def _probe_times(t):
    """Every event time, the gaps between them and both outsides."""
    distinct = np.unique(t)
    return np.concatenate(
        (distinct, distinct - 0.5, [distinct[-1] + 1.0, -1.0, np.inf, -np.inf])
    )


class TestRankIndex:
    @settings(max_examples=120, deadline=None)
    @given(
        segments=_segments,
        as_float=st.booleans(),
        many=st.booleans(),
        seed=st.integers(0, 2 ** 16),
    )
    def test_index_equals_kernel_and_searchsorted(
        self, segments, as_float, many, seed
    ):
        """Below ``_ORDER_FROM`` lanes the index searches, from there
        on it halves, whether the lanes come flat or as a broadcast
        grid; every way equals the per-row searchsorted, and so does
        the kernel called directly."""
        dtype = np.float64 if as_float else np.int64
        values = np.array([v for s in segments for v in s], dtype=dtype)
        offsets = np.cumsum([0] + [len(s) for s in segments])
        rng = np.random.default_rng(seed)
        size = _ORDER_FROM + int(rng.integers(0, 40)) if many else int(
            rng.integers(0, _ORDER_FROM)
        )
        rows = rng.integers(0, len(segments), size=size)
        edge = (-np.inf, np.inf) if as_float else (
            np.iinfo(np.int64).min, np.iinfo(np.int64).max
        )
        pool = np.concatenate((np.arange(-1, 14), edge)).astype(dtype)
        t = rng.choice(pool, size=size)
        expected = [
            np.searchsorted(values[offsets[r]:offsets[r + 1]], x, side="right")
            for r, x in zip(rows, t)
        ]
        index = RankIndex(values, offsets)
        assert index.rank(rows, t).tolist() == expected
        assert segmented_rank(
            values, offsets[rows], offsets[rows + 1], t
        ).tolist() == expected
        # One shared scalar threshold.
        assert index.rank(rows, t[:1][0]).tolist() == [
            np.searchsorted(values[offsets[r]:offsets[r + 1]], t[0], "right")
            for r in rows
        ]
        # A column of rows against a row of times (a chain's lanes,
        # ``time_lanes``): 70 × 17 lanes halve, 50 × 17 search.
        column = rows[: 70 if many else 50, None]
        assert (column.size * pool.size >= _ORDER_FROM) == (
            many and column.size == 70
        )
        assert index.rank(column, pool).tolist() == [
            [
                np.searchsorted(values[offsets[r]:offsets[r + 1]], x, "right")
                for x in pool
            ]
            for r in column.ravel()
        ]

    @settings(max_examples=60, deadline=None)
    @given(events=_events, by_edge=st.booleans())
    def test_constructor_index_equals_argsort_index(self, events, by_edge):
        """The constructor derives the index from the permutation it
        builds the column with (``t`` ascending), ``shm_attach`` by one
        argsort: equal ranks on every (row, time) lane.  Events handed
        over in edge order (each segment ascending, ``t`` not) take the
        argsort too."""
        events = sorted(events, key=lambda e: (e[0], e[2]) if by_edge else e[2])
        edge_id = np.array([e[0] for e in events], dtype=np.int64)
        direction = np.array([e[1] for e in events], dtype=np.int8)
        t = np.array([e[2] for e in events], dtype=np.float64)
        form = CompiledTrackingForm(_interner(6), edge_id, direction, t)
        when = _probe_times(t) if t.size else np.array([0.0, np.inf])
        rows = np.repeat(np.arange(12), when.size)
        lanes = (rows, np.tile(when, 12))
        assert rows.size < _ORDER_FROM
        expected = [
            np.searchsorted(form._column[a:b], x, side="right")
            for a, b, x in zip(
                form._rows[rows], form._rows[rows + 1], lanes[1]
            )
        ]
        handle, descriptor = form.shm_pack(hint="rank-index")
        try:
            attached = CompiledTrackingForm.shm_attach(
                descriptor, form._interner
            )
            assert form._rank_lanes(*lanes).tolist() == expected
            assert attached._rank_lanes(*lanes).tolist() == expected
            del attached
        finally:
            destroy_segment(handle)


class TestCompressedRank:
    @pytest.mark.parametrize("length", [1, 2, 32, 33, 64, 65])
    @pytest.mark.parametrize("width", range(0, 34))
    def test_segment_lengths_and_delta_widths(self, length, width):
        rng = np.random.default_rng(1000 * length + width)
        # Edge 1 carries the segment under test in direction 0, edge 2
        # one event in each direction; edge 0 stays empty.
        if width:
            deltas = rng.integers(0, 2 ** width, size=length - 1)
            if length > 1:
                deltas[rng.integers(length - 1)] = 2 ** width - 1
        else:
            deltas = np.zeros(length - 1, dtype=np.int64)
        t1 = 5.0 + np.concatenate(([0], np.cumsum(deltas))).astype(np.float64)
        t2 = np.array([4.0, 7.0])
        edge_id = np.concatenate((np.full(length, 1), np.full(2, 2)))
        direction = np.concatenate((np.zeros(length), [0, 1])).astype(np.int8)
        t = np.concatenate((t1, t2))
        plain, compressed = _forms(edge_id, direction, t, n_ids=3)
        if width == 0 and length > 1:
            assert compressed.storage_report()["components"]["payload"] == 0
        wall_ids = np.array([0, 1, 2, 1, 5])
        signs = np.array([1, 1, -1, -1, 1])
        when = _probe_times(t)
        assert compressed.integrate_at_ids(
            wall_ids, signs, when
        ).tolist() == plain.integrate_at_ids(wall_ids, signs, when).tolist()
        for d in (0, 1):
            assert np.array_equal(
                compressed._direction_values(d), plain._direction_values(d)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 1), st.integers(0, 4000)
            ),
            min_size=1, max_size=300,
        ),
        tick_bits=st.integers(0, 3),
    )
    def test_random_columns(self, events, tick_bits):
        scale = 2.0 ** tick_bits
        edge_id = np.array([e[0] for e in events], dtype=np.int64)
        direction = np.array([e[1] for e in events], dtype=np.int8)
        t = np.array([e[2] for e in events], dtype=np.float64) / scale
        plain, compressed = _forms(edge_id, direction, t, 4, tick_bits)
        wall_ids = np.array([0, 1, 2, 3, 2])
        signs = np.array([1, -1, 1, 1, -1])
        when = _probe_times(t)
        expected = plain.integrate_at_ids(wall_ids, signs, when).tolist()
        assert compressed.integrate_at_ids(
            wall_ids, signs, when
        ).tolist() == expected

    @settings(max_examples=40, deadline=None)
    @given(
        segments=st.lists(
            # Per row: none (empty), or a head tick and runs of equal
            # deltas — zero runs give width-0 blocks, odd totals
            # partial tail blocks.
            st.none() | st.tuples(
                st.integers(0, 50),
                st.lists(
                    st.tuples(
                        st.sampled_from([0, 0, 1, 3, 40, 1000]),
                        st.integers(1, 70),
                    ),
                    max_size=4,
                ),
            ),
            min_size=1, max_size=8,
        ),
        tick_bits=st.integers(0, 2),
        seed=st.integers(0, 2 ** 16),
    )
    def test_lanes_sharing_blocks_on_both_sides_of_the_switch(
        self, segments, tick_bits, seed
    ):
        """``_rank_lanes`` decodes per lane below ``_DECODE_LANES``
        lanes and once per distinct straddled block from there on;
        either way every lane's rank is the plain form's."""
        n_ids = 4
        rows, ticks = [], []
        for row, segment in enumerate(segments):
            if segment is not None:
                head, runs = segment
                deltas = [d for d, n in runs for _ in range(n)]
                ticks.append(head + np.cumsum([0] + deltas))
                rows.append(np.full(len(deltas) + 1, row))
        rows = np.concatenate(rows or [np.empty(0, np.int64)])
        ticks = np.concatenate(ticks or [np.empty(0, np.int64)])
        edge_id, direction = rows % n_ids, (rows // n_ids).astype(np.int8)
        scale = 2.0 ** -tick_bits
        plain, compressed = _forms(
            edge_id, direction, ticks * scale, n_ids, tick_bits
        )
        # Each block's first tick, the ticks between blocks, ±inf.
        firsts = np.concatenate((compressed._blocks.directory, ticks))
        when = np.concatenate((
            firsts, firsts - 0.5, firsts + 0.5, [-1.0, 1e9]
        )) * scale
        when = np.concatenate((when, [np.inf, -np.inf]))
        lane_row = np.repeat(np.arange(2 * n_ids), when.size)
        lane_t = np.tile(when, 2 * n_ids)
        lens = np.diff(plain._rows)[lane_row]
        # Lanes the directory places inside a block (head <= t, a
        # block to decode); repeated, they share their blocks.
        inside = np.flatnonzero(
            (lens > 1) & (plain._rank_lanes(lane_row, lane_t) > 0)
        )
        rng = np.random.default_rng(seed)
        few = rng.permutation(lane_row.size)[: _DECODE_LANES - 1]
        many = np.arange(lane_row.size)
        if inside.size:
            repeat = -(-_DECODE_LANES // inside.size)
            many = rng.permutation(
                np.concatenate((many, np.tile(inside, repeat)))
            )
        for pick in (few, many):
            expected = plain._rank_lanes(lane_row[pick], lane_t[pick])
            assert np.array_equal(
                compressed._rank_lanes(lane_row[pick], lane_t[pick]),
                expected,
            )
            # A switch of 3 lanes: many decode slices of 3 blocks.
            with mock.patch.object(succinct, "_DECODE_LANES", 3):
                assert np.array_equal(
                    compressed._rank_lanes(lane_row[pick], lane_t[pick]),
                    expected,
                )

    @settings(max_examples=60, deadline=None)
    @given(
        segments=st.lists(
            # Per row: none (empty), or a head tick and runs of equal
            # deltas — no run is a one-event segment, zero runs are
            # width-0 units.
            st.none() | st.tuples(
                st.integers(-20, 50),
                st.lists(
                    st.tuples(
                        st.sampled_from([0, 0, 1, 2, 7, 300]),
                        st.integers(1, 20),
                    ),
                    max_size=4,
                ),
            ),
            max_size=8,
        ),
        block=st.sampled_from([1, 3, 8, 32]),
        tick_bits=st.integers(0, 2),
        seed=st.integers(0, 2 ** 16),
    )
    def test_rank_equals_searchsorted_of_the_decoded_row(
        self, segments, block, tick_bits, seed
    ):
        """Per lane, the unit directory's rank plus one unit's decode
        equals ``np.searchsorted(row, t, "right")`` on the row as
        written, at every unit size, below and from ``_DECODE_LANES``
        lanes, as a chain's ``(rows, times)`` grid and as flat
        lanes."""
        n_ids, scale = 4, 2.0 ** -tick_bits
        values = [np.empty(0)] * (2 * n_ids)
        for row, segment in enumerate(segments):
            if segment is not None:
                head, runs = segment
                deltas = [d for d, n in runs for _ in range(n)]
                values[row] = (head + np.cumsum([0] + deltas)) * scale
        rows = np.repeat(np.arange(2 * n_ids), [v.size for v in values])
        form = CompressedTrackingForm(
            _interner(n_ids), rows % n_ids, (rows // n_ids).astype(np.int8),
            np.concatenate(values), boundary_cache_size=0,
            tick_bits=tick_bits, block=block,
        )
        # Ties with directory values and every value, the gaps between
        # them, below every head, past every last value, ±inf.
        ticks = np.concatenate([v / scale for v in values] + [[0.0]])
        ticks = np.unique(np.concatenate((form._blocks.directory, ticks)))
        when = np.concatenate((
            ticks, ticks + 0.5, [ticks[0] - 1, ticks[-1] + 1]
        )) * scale
        when = np.concatenate((when, [np.inf, -np.inf]))
        grid = np.arange(2 * n_ids)[:, None]
        expected = np.array([
            [np.searchsorted(row, x, side="right") for x in when]
            for row in values
        ])
        rng = np.random.default_rng(seed)
        lane_row = rng.integers(0, 2 * n_ids, size=_DECODE_LANES + 50)
        lane_t = rng.choice(when, size=lane_row.size)
        assert np.array_equal(form._rank_lanes(grid, when), expected)
        for size in (_DECODE_LANES - 1, lane_row.size):
            assert np.array_equal(
                form._rank_lanes(lane_row[:size], lane_t[:size]),
                [
                    np.searchsorted(values[r], x, side="right")
                    for r, x in zip(lane_row[:size], lane_t[:size])
                ],
            )

    def test_gap_wider_than_one_window_is_refused(self):
        t = np.array([0.0, 2.0 ** 58])
        with pytest.raises(ValueError, match="block width"):
            CompressedTrackingForm(
                _interner(1), np.zeros(2, np.int64), np.zeros(2, np.int8), t
            )


# ----------------------------------------------------------------------
# Sketch: vectorised estimate == brute force from the raw events
# ----------------------------------------------------------------------
class TestSketchEstimate:
    @settings(max_examples=80, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.integers(0, 4), st.integers(0, 1), st.integers(0, 999)
            ),
            min_size=1, max_size=200,
        ),
        bins=st.integers(1, 16),
        chain=st.lists(
            st.tuples(st.integers(0, 6), st.sampled_from([-1, 1])),
            min_size=1, max_size=8,
        ),
        t1=st.integers(0, 1100),
        span=st.integers(0, 600),
    )
    def test_estimate_and_bound(self, events, bins, chain, t1, span):
        events = sorted(events, key=lambda e: e[2])
        edge_id = np.array([e[0] for e in events], dtype=np.int32)
        direction = np.array([e[1] for e in events], dtype=np.int8)
        t = np.array([e[2] for e in events], dtype=np.float64)
        columns = EventColumns(
            interner=_interner(5), edge_id=edge_id, direction=direction, t=t
        )
        sketch = EdgeCountSketch.from_columns(columns, bins=bins)
        wall_ids = np.array([c[0] for c in chain])  # 5, 6: unknown ids
        signs = np.array([c[1] for c in chain])
        bin_of = np.floor(t / sketch._bin_width)
        weight = np.where(direction == 0, 1, -1)

        def brute(when):
            q = np.floor(when / sketch._bin_width)
            estimate = bound = 0
            for eid, sign in zip(wall_ids, signs):
                on_edge = edge_id == eid
                estimate += sign * int(weight[on_edge & (bin_of < q)].sum())
                bound += int(np.sum(on_edge & (bin_of == q)))
            return estimate, bound

        t2 = float(t1 + span)
        for when in (float(t1), t2):
            estimate, bound = sketch.estimate_until_ids(wall_ids, signs, when)
            assert (estimate, bound) == brute(when)
            exact = _brute(edge_id, direction, t, wall_ids, signs, when)
            assert abs(exact - estimate) <= bound
        estimate, bound = sketch.estimate_between_ids(
            wall_ids, signs, float(t1), t2
        )
        (e1, b1), (e2, b2) = brute(float(t1)), brute(t2)
        assert (estimate, bound) == (e2 - e1, b1 + b2)

    def test_infinite_times_clip_to_the_grid(self):
        """±inf lands beyond every bin, not on a wrapped int64: with
        a non-zero total net, ``-inf`` counts nothing and ``+inf``
        everything, both at bound 0, without a cast warning."""
        sketch = EdgeCountSketch(
            edge_offsets=np.array([0, 3]), bins=np.array([0, 1, 2]),
            cum_net=np.array([1, 2, 3], dtype=np.int32),
            activity=np.ones(3, dtype=np.int32), bin_width=1.0, n_ids=1,
        )
        wall_ids, signs = np.array([0]), np.array([1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            until = sketch.estimate_until_ids
            assert until(wall_ids, signs, -np.inf) == (0, 0)
            assert until(wall_ids, signs, np.inf) == (3, 0)
            assert sketch.estimate_between_ids(
                wall_ids, signs, -np.inf, 10.0
            ) == (3, 0)
            assert sketch.estimate_between_ids(
                wall_ids, signs, -np.inf, np.inf
            ) == (3, 0)

    def test_stores_without_events_answer_zero(self):
        interner = _interner(3)
        none = (np.empty(0, np.int32), np.empty(0, np.int8), np.empty(0))
        wall_ids, signs = np.array([0, 2, 7]), np.array([1, -1, 1])
        sketch = EdgeCountSketch.from_columns(
            EventColumns(interner, *none), bins=4
        )
        assert sketch.estimate_until_ids(wall_ids, signs, 1.0) == (0, 0)
        assert sketch.estimate_between_ids(wall_ids, signs, 1.0, 2.0) == (0, 0)
        for form in (CompiledTrackingForm, CompressedTrackingForm):
            empty = form(interner, *none)
            assert empty.integrate_between_ids(wall_ids, signs, 1.0, 2.0) == 0
            assert empty.integrate_until_ids(wall_ids, signs, 1.0) == 0  # compiles


# ----------------------------------------------------------------------
# Narrow stored columns
# ----------------------------------------------------------------------
def _smallest_itemsize(column):
    lo, hi = (int(column.min()), int(column.max())) if column.size else (0, 0)
    return min(
        np.dtype(dtype).itemsize
        for dtype in (np.uint8, np.int8, np.uint16, np.int16, np.uint32,
                      np.int32, np.int64)
        if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max
    )


class TestNarrowColumns:
    """Each stored integer column is kept at the narrowest width its
    values need; answers equal those of the same stores built with
    every column at int64."""

    #: (edge, events, direction: 0 / 1 / 2 = mixed, time spread).
    _burst = st.tuples(
        st.integers(0, 4), st.integers(1, 400), st.integers(0, 2),
        st.sampled_from([0, 7, 5000]),
    )

    @staticmethod
    def _build(columns, bins):
        sketch = EdgeCountSketch.from_columns(columns, bins=bins)
        form = CompressedTrackingForm(
            columns.interner, columns.edge_id, columns.direction,
            columns.t, boundary_cache_size=0,
        )
        return sketch, form

    @settings(max_examples=40, deadline=None)
    @given(
        bursts=st.lists(_burst, min_size=1, max_size=4),
        base=st.sampled_from([0, 2 ** 33, -(2 ** 33)]),
        bins=st.sampled_from([1, 4, 64]),
        seed=st.integers(0, 2 ** 16),
    )
    # One-way bursts of 300 in one bin on ticks past 2**32: a net past
    # ±127, an activity past 255 and heads past uint32.
    @example(bursts=[(0, 300, 0, 0), (1, 300, 1, 7)], base=2 ** 33, bins=4,
             seed=0)
    def test_columns_widen_when_the_data_needs_it(
        self, bursts, base, bins, seed
    ):
        rng = np.random.default_rng(seed)
        parts = []
        for edge, n, direction, spread in bursts:
            start = base + int(rng.integers(0, 2 ** 20))
            parts.append((
                np.full(n, edge),
                rng.integers(0, 2, n) if direction == 2
                else np.full(n, direction),
                start + rng.integers(0, spread + 1, n),
            ))
        edge_id, direction, ticks = map(np.concatenate, zip(*parts))
        order = np.argsort(ticks, kind="stable")
        columns = EventColumns(
            interner=_interner(5), edge_id=edge_id[order].astype(np.int32),
            direction=direction[order].astype(np.int8),
            t=ticks[order].astype(np.float64),
        )
        sketch, form = self._build(columns, bins)
        with contextlib.ExitStack() as stack:
            for module in ("sketch", "compiled", "succinct"):
                stack.enter_context(mock.patch(
                    f"repro.forms.{module}.narrowest",
                    lambda v: np.asarray(v).astype(np.int64),
                ))
            wide_sketch, wide_form = self._build(columns, bins)
        assert wide_sketch._bins.dtype == np.int64
        assert wide_form._blocks.heads.dtype == np.int64

        stored = {
            sketch: [sketch._edge_offsets, sketch._bins, sketch._cum_net,
                     sketch._activity],
            form: [*form._offsets, form._blocks.heads, form._blocks.widths,
                   form._blocks.payload],
        }
        for store, arrays in stored.items():
            for array in arrays:
                assert array.dtype.itemsize == _smallest_itemsize(array)
            assert store.storage_report()["total_bytes"] == sum(
                a.dtype.itemsize * a.size for a in arrays
            )

        wall_ids = np.array([0, 1, 2, 3, 4, 5])  # 5: an unknown id
        signs = rng.choice([-1, 1], size=wall_ids.size)
        probes = _probe_times(columns.t)
        # A few times rank by index, all of them by halving.
        for times in (probes[-4:], np.tile(probes, 1 + 1024 // probes.size)):
            (e1, b1), (e2, b2) = (
                store._estimate(wall_ids, signs, times)
                for store in (sketch, wide_sketch)
            )
            assert np.array_equal(e1, e2) and np.array_equal(b1, b2)
            assert np.array_equal(
                form.integrate_at_ids(wall_ids, signs, times),
                wide_form.integrate_at_ids(wall_ids, signs, times),
            )
        assert form.net_total_ids(wall_ids, signs) == (
            wide_form.net_total_ids(wall_ids, signs)
        )
        assert form.total_events == columns.t.size
        assert form.storage_profile() == wide_form.storage_profile()


# ----------------------------------------------------------------------
# Edge-id sorts on a narrow key
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _sort_interner(n_ids):
    """One interner per size for the edge-id sort tests: 200 ids fit
    16 bits (a radix-sorted key), 70 000 do not (the wider key)."""
    return _interner(n_ids)


def _sort_columns(n_ids, seed, n=600):
    """Time-sorted columns over ``n_ids`` ids with many tied times on
    an integer grid; past 16 bits, ids ``k`` and ``k + 65536`` both
    occur, so a key that wrapped would merge their rows."""
    rng = np.random.default_rng(seed)
    edge_id = rng.integers(0, min(n_ids, 40), n)
    if n_ids > 2 ** 16:
        edge_id[::3] += 2 ** 16
    edge_id[-1] = n_ids - 1
    t = np.sort(rng.integers(0, 64, n)).astype(np.float64)
    t[-1] = 64.0
    return EventColumns(
        interner=_sort_interner(n_ids), edge_id=edge_id.astype(np.int32),
        direction=rng.integers(0, 2, n).astype(np.int8), t=t,
    )


class TestEdgeIdSort:
    """The plain form's CSR and the sketch's pairs, built with a stable
    edge-id sort on the narrowest key, equal an oracle that sorts by
    every key at int64 with ``np.lexsort``."""

    @pytest.mark.parametrize("n_ids", [200, 70_000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compiled_csr(self, n_ids, seed):
        columns = _sort_columns(n_ids, seed)
        edge_id = columns.edge_id.astype(np.int64)
        direction, t = columns.direction.astype(np.int64), columns.t
        form = CompiledTrackingForm(
            columns.interner, columns.edge_id, columns.direction, t
        )
        position = np.arange(t.size)
        order = np.lexsort((position, edge_id, direction))
        rows = np.bincount(direction * n_ids + edge_id, minlength=2 * n_ids)
        offsets = np.concatenate(([0], np.cumsum(rows)))
        assert np.array_equal(form._column, t[order])
        assert np.array_equal(form._rows, offsets)
        for d in (0, 1):
            assert np.array_equal(
                form._offsets[d], offsets[d * n_ids:(d + 1) * n_ids + 1]
                - offsets[d * n_ids]
            )
        keys = np.repeat(np.arange(2 * n_ids), rows) * t.size + order
        assert np.array_equal(form._index.keys, keys)

    @pytest.mark.parametrize("n_ids", [200, 70_000])
    @pytest.mark.parametrize("bins", [1, 8, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sketch_pairs(self, n_ids, bins, seed):
        """Times on an integer grid up to 64: with 8 or 64 bins many
        events sit on bin edges, and ties are everywhere."""
        columns = _sort_columns(n_ids, seed)
        sketch = EdgeCountSketch.from_columns(columns, bins=bins)
        edge_id = columns.edge_id.astype(np.int64)
        bin_of = np.floor(columns.t / (64.0 / bins)).astype(np.int64)
        sign = np.where(columns.direction == 0, 1, -1)
        order = np.lexsort((bin_of, edge_id))
        pairs, net, activity = [], [], []
        for e, b, s in zip(edge_id[order], bin_of[order], sign[order]):
            if not pairs or pairs[-1] != (e, b):
                pairs.append((e, b))
                net.append(0)
                activity.append(0)
            net[-1] += s
            activity[-1] += 1
        cum_net, running = [], {}
        for (e, _), n in zip(pairs, net):
            running[e] = running.get(e, 0) + n
            cum_net.append(running[e])
        per_edge = np.bincount([e for e, _ in pairs], minlength=n_ids)
        assert np.array_equal(
            sketch._edge_offsets, np.concatenate(([0], np.cumsum(per_edge)))
        )
        assert np.array_equal(sketch._bins, [b for _, b in pairs])
        assert np.array_equal(sketch._cum_net, cum_net)
        assert np.array_equal(sketch._activity, activity)


# ----------------------------------------------------------------------
# Streaming store: zone maps
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream_deployment():
    network, _, workload = _deployment("organic", 12, seed=37)
    events = sorted(workload.events(network.domain), key=lambda e: e.t)
    batch = network.build_form(
        EventColumns.from_events(network.domain, events)
    )
    return network, events, batch, workload.horizon


class TestZoneMaps:
    @pytest.mark.parametrize("order", ["arrival", "shuffled", "reversed"])
    @pytest.mark.parametrize("compress", [False, True])
    def test_block_boundaries_and_overlapping_ranges(
        self, stream_deployment, order, compress
    ):
        network, events, batch, horizon = stream_deployment
        if order == "shuffled":
            events = list(events)
            random.Random(3).shuffle(events)
        elif order == "reversed":
            events = events[::-1]
        store = StreamingEventStore(
            network, compact_every=200, max_blocks=3, compress=compress
        )

        def reference(n):
            """Batch-built form over the first ``n`` arrivals."""
            if n >= len(events) and not compress:
                return batch
            columns = EventColumns.from_events(network.domain, events[:n])
            if compress:  # the store quantizes at tick_bits=0
                columns = columns.quantized(0)
            return network.build_form(columns)

        planner = CompiledQueryPlanner(network)
        regions = [r for r in range(network.region_count)
                   if r != network.ext_region]
        chains = [planner.boundary(tuple(regions[:k])) for k in (1, 3, 6)]
        for start in range(0, len(events), 150):
            store.append_events(events[start:start + 150])
            zones = list(store._zones)
            assert len(zones) == store.block_count
            if order == "shuffled" and len(zones) > 1:
                # Out-of-order arrivals: block ranges overlap
                # ("reversed" keeps them disjoint but descending).
                assert any(
                    a[0] <= b[1] and b[0] <= a[1]
                    for i, a in enumerate(zones) for b in zones[i + 1:]
                )
            edges = [t for zone in zones for t in zone]
            edges.append(store._tail_min)
            times = sorted(
                {t + dt for t in edges if np.isfinite(t)
                 for dt in (-1.0, 0.0, 1.0)}
            ) + [0.0, horizon]
            for chain in chains:
                wall_ids, signs = chain.wall_ids, chain.signs
                expected = reference(start + 150)
                for t in times:
                    assert store.integrate_until_ids(
                        wall_ids, signs, t
                    ) == expected.integrate_until_ids(wall_ids, signs, t), t
                pairs = list(zip(times, times[1:] + times[:1]))
                for t1, t2 in pairs[:: max(len(pairs) // 6, 1)]:
                    t1, t2 = min(t1, t2), max(t1, t2)
                    assert store.integrate_between_ids(
                        wall_ids, signs, t1, t2
                    ) == expected.integrate_between_ids(
                        wall_ids, signs, t1, t2
                    )
        assert store.block_merges >= 1

    def test_engine_answers_match_batch_form(self, stream_deployment):
        network, events, batch, horizon = stream_deployment
        shuffled = list(events)
        random.Random(7).shuffle(shuffled)
        store = StreamingEventStore(network, compact_every=300)
        store.append_events(shuffled)
        battery = _battery(network.domain, horizon, seed=53, n_boxes=8)
        for static_eval in ("end", "min"):
            got = QueryEngine(
                network, store, static_eval=static_eval
            ).execute_batch(battery)
            want = QueryEngine(
                network, batch, static_eval=static_eval
            ).execute_batch(battery)
            assert [_key(r) for r in got] == [_key(r) for r in want]


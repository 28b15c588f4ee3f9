"""Stateful generated test of :class:`repro.stream.StreamingEventStore`.

A ``hypothesis`` rule-based machine drives one store through freely
interleaved arrival windows, compactions (some with an injected build
failure), reads and snapshots, and after every step holds it against a
batch-built :class:`~repro.forms.CompiledTrackingForm` over the events
it should have accepted:

- windows carry out-of-order and duplicate timestamps on a 1/32 s grid
  (so values collide across the quantization tick, and query times tie
  with event times), events on unmonitored and never-seen edges, and
  nothing at all;
- reads ask ``integrate_at_ids`` / ``integrate_between_ids`` and the
  per-edge surface at grid times, at exact event times and one tick
  either side of every zone edge (block ``t_min`` / ``t_max``, the
  tail's earliest timestamp);
- the store runs plain and compressed (``tick_bits`` 0 and 4), with
  ``compact_every`` from 1 up and ``max_blocks`` 1, 2 and 8.

Invariants: every event is held exactly once (tail + blocks), the
generation moves by exactly one per accepted window, compaction and
merge, the block cap holds, and — while no failure was injected — the
tiers descend strictly, i.e. the blocks are a binary counter.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from test_query_planner import _deployment

from repro.forms import CompiledTrackingForm
from repro.planar import canonical_edge
from repro.query import CompiledQueryPlanner
from repro.stream import StreamingEventStore
from repro.trajectories import CrossingEvent, EventColumns

#: Query / event time grid: 1/32 s steps over 20 s.
TICK = 1.0 / 32
_grid_times = st.integers(0, 640).map(lambda k: k * TICK)


@functools.lru_cache(maxsize=None)
def _world():
    """One small deployment: its walls, edges it does not monitor
    (two of them unknown to the domain) and three boundary chains."""
    network, _, _ = _deployment("grid", 6, seed=37)
    walls = sorted(network.walls, key=repr)
    off = sorted(
        (
            e for e in network.domain.graph.edges()
            if canonical_edge(*e) not in network.walls
        ),
        key=repr,
    )[:4] + [("ghost", 0), ("ghost", 1)]
    planner = CompiledQueryPlanner(network)
    regions = [
        r for r in range(network.region_count) if r != network.ext_region
    ]
    chains = [
        planner.boundary(tuple(regions[:k]))
        for k in (1, 2, len(regions))
    ]
    return network, walls, off, [(c.wall_ids, c.signs) for c in chains]


#: A monitored edge / any edge (canonical orientation).  Deferred: the
#: world is built when the first example is drawn, not at import.
_walls = st.deferred(lambda: st.sampled_from(_world()[1]))
_any_edge = st.deferred(lambda: st.sampled_from(_world()[1] + _world()[2]))


def _directed(edges):
    return st.builds(
        lambda edge, flip: edge[::-1] if flip else edge, edges, st.booleans()
    )


#: One crossing: a directed edge (on a wall or not) and a time.
_events = st.builds(
    lambda edge, t: CrossingEvent(*edge, t), _directed(_any_edge), _grid_times
)


def _triples(columns):
    """The multiset of stored events, order-free."""
    return sorted(
        zip(columns.t.tolist(), columns.edge_id.tolist(),
            columns.direction.tolist())
    )


class StreamMachine(RuleBasedStateMachine):
    @initialize(
        compress=st.sampled_from([None, 0, 4]),
        compact_every=st.sampled_from([1, 3, 8, 20]),
        max_blocks=st.sampled_from([1, 2, 8]),
    )
    def deploy(self, compress, compact_every, max_blocks):
        self.network, _, _, self.chains = _world()
        self.tick_bits = compress
        self.store = StreamingEventStore(
            self.network, compact_every=compact_every,
            max_blocks=max_blocks, compress=compress is not None,
            tick_bits=compress or 0,
        )
        #: Every event offered so far; the oracle filters and
        #: quantizes them by the batch path's own code.
        self.offered = []
        self.accepted = 0
        self.faulted = False   # a build failure was ever injected
        self.over_cap = False  # ... and no compaction has run since
        self._oracle = (None, -1)

    # -- helpers ---------------------------------------------------------
    def oracle(self) -> CompiledTrackingForm:
        if self._oracle[1] != len(self.offered):
            columns = EventColumns.from_events(
                self.network.domain, self.offered
            )
            if self.tick_bits is not None:
                columns = columns.quantized(self.tick_bits)
            self._oracle = (
                self.network.build_form(columns), len(self.offered)
            )
        return self._oracle[0]

    def counters(self):
        store = self.store
        return store.generation, store.compactions, store.block_merges

    def settle(self, before, appended=0, failed=False):
        """The generation moved by one per accepted window, compaction
        and merge since ``before``; a compaction that ran through has
        the block cap back in force."""
        generation, compactions, merges = self.counters()
        assert generation - before[0] == (
            appended + compactions - before[1] + merges - before[2]
        )
        if failed:
            self.faulted = self.over_cap = True
        elif compactions > before[1]:
            self.over_cap = False

    def zone_times(self):
        """Every zone edge and the tail's earliest timestamp, one tick
        either side, and two fixed times."""
        store = self.store
        edges = [t for zone in store._zones for t in zone]
        edges.append(store._tail_min)
        times = {
            t + dt for t in edges if math.isfinite(t)
            for dt in (-TICK, 0.0, TICK)
        }
        return sorted(times | {5.0, 20.0})

    def interesting_times(self):
        """Times a grid draw would rarely hit: the zone edges and the
        stored event times."""
        return sorted(
            set(self.zone_times()) | set(self.oracle().to_columns().t.tolist())
        )

    # -- rules -----------------------------------------------------------
    @rule(window=st.lists(_events, max_size=12))
    def append_window(self, window):
        before = self.counters()
        expected = sum(
            canonical_edge(e.tail, e.head) in self.network.walls
            for e in window
        )
        self.offered.extend(window)
        assert self.store.append_events(window) == expected
        self.accepted += expected
        self.settle(before, appended=1 if expected else 0)

    @rule()
    def compact(self):
        before = self.counters()
        had_tail = self.store.tail_events > 0
        assert self.store.compact() is had_tail
        assert self.store.tail_events == 0
        self.settle(before)

    @precondition(lambda self: self.store.tail_events > 0)
    @rule(nth=st.integers(1, 3))
    def compact_with_failing_build(self, nth):
        """The ``nth`` block build of this compaction raises: the tail
        block (nothing may change) or one of the merges after it (the
        tail block is in, the two inputs stay)."""
        store, real, calls = self.store, self.store._build, []

        def flaky(columns):
            calls.append(1)
            if len(calls) == nth:
                raise RuntimeError("injected build failure")
            return real(columns)

        before = self.counters()
        store._build = flaky
        try:
            store.compact()
        except RuntimeError:
            failed = True
        else:
            failed = False
        finally:
            del store._build
        assert (store.tail_events > 0) == (failed and nth == 1)
        self.settle(before, failed=failed)

    @rule(data=st.data(), chain=st.integers(0, 2))
    def read_chain(self, data, chain):
        wall_ids, signs = self.chains[chain]
        pick = st.one_of(
            _grid_times, st.sampled_from(self.interesting_times())
        )
        times = sorted(data.draw(st.lists(pick, min_size=1, max_size=4)))
        oracle = self.oracle()
        assert self.store.integrate_at_ids(wall_ids, signs, times) == [
            int(v) for v in oracle.integrate_at_ids(wall_ids, signs, times)
        ]
        assert self.store.integrate_between_ids(
            wall_ids, signs, times[0], times[-1]
        ) == oracle.integrate_between_ids(
            wall_ids, signs, times[0], times[-1]
        )

    @rule(data=st.data(), edge=_directed(_walls))
    def read_edge(self, data, edge):
        t = data.draw(
            st.one_of(_grid_times, st.sampled_from(self.interesting_times()))
        )
        store, oracle = self.store, self.oracle()
        assert store.net_until(edge, t) == oracle.net_until(edge, t)
        assert store.count_entering(edge, t) == oracle.count_entering(edge, t)
        assert store.count_leaving(edge, t) == oracle.count_leaving(edge, t)
        assert store.timestamps(edge) == oracle.timestamps(edge)
        assert store.event_count(edge) == oracle.event_count(edge)

    @rule()
    def snapshot_columns(self):
        got = self.store.snapshot_columns()
        assert not np.any(np.diff(got.t) < 0)
        assert _triples(got) == _triples(self.oracle().to_columns())

    # -- invariants ------------------------------------------------------
    @invariant()
    def holds_every_event_once(self):
        store = self.store
        assert store.observed_total == self.accepted
        assert store.tail_events + store.block_events == self.accepted
        assert store.block_events == sum(
            block.total_events for block in store._blocks
        )
        assert store.rewritten_events >= store.block_events
        assert set(store.edges()) == set(self.oracle().edges())
        report = store.storage_report()
        assert report["events"] == self.accepted
        assert report["components"]["tail"] == 13 * store.tail_events

    @invariant()
    def answers_equal_the_batch_form(self):
        oracle = self.oracle()
        times = self.zone_times()
        for wall_ids, signs in self.chains:
            assert self.store.integrate_at_ids(wall_ids, signs, times) == [
                int(v) for v in oracle.integrate_at_ids(wall_ids, signs, times)
            ]

    @invariant()
    def layout_is_bounded(self):
        store = self.store
        assert len(store._zones) == len(store._tiers) == store.block_count
        if not self.over_cap:
            assert store.block_count <= store.max_blocks
        if not self.faulted:
            tiers = store._tiers
            assert all(a > b for a, b in zip(tiers, tiers[1:]))
            if store.compactions:
                assert store.block_count <= (
                    math.floor(math.log2(store.compactions)) + 1
                )


StreamMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestStreamMachine = StreamMachine.TestCase

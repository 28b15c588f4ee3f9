"""Streaming ingestion: the LSM-style event store and the
stale-cache/consistency sweep.

Covers:

- :class:`repro.stream.StreamingEventStore` unit behaviour (wall
  filtering, generation bumps, auto-compaction, tiered block merges
  under the ``max_blocks`` cap, write amplification as a count,
  snapshot round-trip, closed-store guards);
- build-then-swap under injected failures: a merge that raises and a
  ``built`` listener that raises lose nothing;
- :meth:`repro.forms.CompiledTrackingForm.to_columns` round-trip (the
  forms are immutable: a block merge rebuilds from its inputs' columns);
- randomized streaming ↔ batch equivalence: arrival order ×
  compaction cadence × planner (python / compiled / sharded) must be
  field-identical, including a query issued *mid-compaction*;
- terminal ``close()`` semantics (structured QueryError, never a bare
  AttributeError from a released resource).
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from test_query_planner import _battery, _key

from repro.core import FrameworkConfig, InNetworkFramework
from repro.errors import ConfigurationError, QueryError
from repro.forms import CompiledTrackingForm
from repro.mobility import MobilityDomain, grid_city
from repro.obs import Instrumentation, Tracer, record_dict
from repro.planar import EdgeInterner
from repro.query import (
    QueryEngine,
    RangeQuery,
    ShardedQueryEngine,
)
from repro.stream import StreamingEventStore, replay
from repro.trajectories import (
    EventColumns,
    WorkloadConfig,
    generate_workload,
)

HORIZON = 86400.0


# ----------------------------------------------------------------------
# Shared small deployment (module-scoped: many grid combinations below)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def grid_road():
    return grid_city(rows=6, cols=6, jitter=0.0, drop_fraction=0.0)


@pytest.fixture(scope="module")
def grid_events(grid_road):
    domain = MobilityDomain(grid_road)
    workload = generate_workload(
        domain, WorkloadConfig(n_trips=150, horizon_days=1.0, seed=5)
    )
    return sorted(workload.events(domain), key=lambda e: e.t)


def _deploy(road, *, streaming, compact_every=256):
    framework = InNetworkFramework.from_road_graph(road)
    framework.deploy(
        FrameworkConfig(
            budget=10,
            seed=3,
            streaming=streaming,
            compact_every=compact_every,
        )
    )
    return framework


def _arrange(events, order):
    if order == "sorted":
        return list(events)
    if order == "reversed":
        return list(events)[::-1]
    shuffled = list(events)
    random.Random(17).shuffle(shuffled)
    return shuffled


def _chunks(events, size):
    for start in range(0, len(events), size):
        yield events[start:start + size]


# ----------------------------------------------------------------------
# StreamingEventStore unit behaviour (on the shared organic fixtures)
# ----------------------------------------------------------------------
class TestStreamingEventStore:
    def test_append_filters_to_walls(self, sampled_net, events):
        store = StreamingEventStore(sampled_net, compact_every=10**9)
        observed = store.append_events(events)
        reference = sampled_net.build_form(events)
        assert observed == reference.total_events
        assert store.total_events == observed
        assert store.tail_events == observed  # never compacted
        assert store.block_count == 0
        assert store.generation == 1
        assert store.observed_total == observed

    def test_empty_batch_does_not_bump_generation(self, sampled_net):
        store = StreamingEventStore(sampled_net)
        assert store.append_events([]) == 0
        assert store.generation == 0

    def test_counts_match_batch_form(
        self, sampled_net, sampled_form, events
    ):
        store = StreamingEventStore(sampled_net, compact_every=500)
        replay(store, events, batch=333)
        assert store.compactions > 0
        assert store.tail_events + store.block_events == (
            sampled_form.total_events
        )
        for edge in list(store.edges())[:12]:
            for t in (HORIZON * 0.25, HORIZON * 0.75):
                assert store.net_until(edge, t) == (
                    sampled_form.net_until(edge, t)
                )
                assert store.count_entering(edge, t) == (
                    sampled_form.count_entering(edge, t)
                )
        regions = tuple(
            r for r in range(sampled_net.region_count)
            if r != sampled_net.ext_region
        )[:3]
        boundary = sampled_net.region_boundary(regions)
        assert store.integrate_until(boundary, HORIZON * 0.5) == (
            sampled_form.integrate_until(boundary, HORIZON * 0.5)
        )

    def test_block_merges_bound_fanout(self, sampled_net, sampled_form, events):
        store = StreamingEventStore(
            sampled_net, compact_every=64, max_blocks=2
        )
        for window in _chunks(events, 64):
            store.append_events(window)
            # The cap is hard: it holds after every append, whatever
            # the tiers of the blocks it forces together.
            assert store.block_count <= 2
        assert store.block_merges > 0
        edge = next(iter(store.edges()))
        assert store.net_until(edge, HORIZON) == (
            sampled_form.net_until(edge, HORIZON)
        )

    @pytest.mark.parametrize("compactions", [8, 47, 200])
    def test_write_amplification_is_logarithmic(
        self, sampled_net, events, compactions
    ):
        """Equal-tier merging is a binary counter: after ``k``
        compactions an event has been written at most ``2 + log2 k``
        times (merging into the predecessor wrote it ~``k / 2`` times)
        and one block per set bit of ``k`` is live.  Counted by the
        store itself, at fixed windows — not timed."""
        window = 8
        observed = sampled_net.observed_events(events)
        assert len(observed) >= compactions * window
        store = StreamingEventStore(sampled_net, compact_every=window)
        replay(store, observed[:compactions * window])
        layout = store.describe()
        assert layout["compactions"] == compactions
        assert layout["tail_events"] == 0
        assert layout["rewritten_events"] == window * sum(
            (compactions >> tier) << tier
            for tier in range(compactions.bit_length())
        )
        assert layout["rewritten_events"] / layout["observed_total"] <= (
            2 + math.log2(compactions)
        )
        assert store.block_count == bin(compactions).count("1") <= min(
            store.max_blocks, math.floor(math.log2(compactions)) + 1
        )

    def test_compact_empty_tail_is_noop(self, sampled_net):
        store = StreamingEventStore(sampled_net)
        assert store.compact() is False
        assert store.generation == 0

    def test_snapshot_columns_round_trip(
        self, organic_domain, sampled_net, events
    ):
        store = StreamingEventStore(sampled_net, compact_every=700)
        replay(store, events, batch=701)
        snapshot = store.snapshot_columns()
        reference = sampled_net.observed_columns(
            EventColumns.from_events(organic_domain, events)
        ).time_sorted()
        # Same multiset of (edge, direction, time) triples; order within
        # equal timestamps may differ between the two paths.
        got = np.lexsort((snapshot.direction, snapshot.edge_id, snapshot.t))
        want = np.lexsort(
            (reference.direction, reference.edge_id, reference.t)
        )
        np.testing.assert_array_equal(
            snapshot.edge_id[got], reference.edge_id[want]
        )
        np.testing.assert_array_equal(
            snapshot.direction[got], reference.direction[want]
        )
        np.testing.assert_array_equal(snapshot.t[got], reference.t[want])

    def test_closed_store_raises_structured(self, sampled_net, events):
        store = StreamingEventStore(sampled_net)
        store.append_events(events[:50])
        store.close()
        store.close()  # idempotent
        assert store.closed
        with pytest.raises(QueryError, match="closed"):
            store.append_events(events[:5])
        with pytest.raises(QueryError, match="closed"):
            store.net_until(("a", "b"), 1.0)
        with pytest.raises(QueryError, match="closed"):
            store.integrate_until([], 1.0)
        with pytest.raises(QueryError, match="closed"):
            store.snapshot_columns()
        assert store.describe()["closed"] is True

    def test_describe_and_repr(self, sampled_net, events):
        store = StreamingEventStore(sampled_net, compact_every=100)
        replay(store, events[:300], batch=100)
        layout = store.describe()
        assert layout["observed_total"] == store.observed_total
        assert layout["blocks"] == store.block_count
        assert layout["rewritten_events"] >= layout["block_events"]
        assert "generation" in repr(store) or "tail" in repr(store)


# ----------------------------------------------------------------------
# Build-then-swap under injected failures
# ----------------------------------------------------------------------
class TestCompactionFailures:
    """A block build or a listener that raises leaves the old layout
    whole: nothing lost, nothing counted twice, the next compaction
    succeeds."""

    @staticmethod
    def _agrees(store, network, accepted):
        oracle = network.build_form(accepted)
        assert store.observed_total == len(accepted)
        assert store.tail_events + store.block_events == len(accepted)
        regions = [
            r for r in range(network.region_count)
            if r != network.ext_region
        ]
        boundary = network.region_boundary(regions[:4])
        for t in (HORIZON * 0.3, HORIZON * 0.6, HORIZON):
            assert store.integrate_until(boundary, t) == (
                oracle.integrate_until(boundary, t)
            )
            for edge in list(oracle.edges())[:8]:
                assert store.net_until(edge, t) == oracle.net_until(edge, t)

    @pytest.mark.parametrize("max_blocks", [1, 8])
    def test_merge_that_raises_loses_nothing(
        self, sampled_net, events, monkeypatch, max_blocks
    ):
        """The merge of the second compaction is due by the cap
        (``max_blocks=1``) or by the tier rule (two tier-0 blocks)."""
        observed = sampled_net.observed_events(events)[:300]
        store = StreamingEventStore(
            sampled_net, compact_every=10**9, max_blocks=max_blocks
        )
        phases = []
        store.on_compact(lambda s, phase: phases.append(phase))
        store.append_events(observed[:100])
        assert store.compact() is True
        store.append_events(observed[100:200])

        real = CompiledTrackingForm.to_columns
        failures = []

        def flaky(form, *args):
            if not failures:
                failures.append(form)
                raise RuntimeError("injected merge failure")
            return real(form, *args)

        monkeypatch.setattr(CompiledTrackingForm, "to_columns", flaky)
        generation = store.generation
        with pytest.raises(RuntimeError, match="injected"):
            store.compact()
        # The tail block went in; its merge did not happen — both
        # inputs still serve, and the compaction was announced.
        assert len(failures) == 1
        assert (store.tail_events, store.block_count) == (0, 2)
        assert (store.compactions, store.block_merges) == (2, 0)
        assert store.generation == generation + 1
        assert phases == ["built", "swapped"] * 2
        self._agrees(store, sampled_net, observed[:200])

        store.append_events(observed[200:])
        assert store.compact() is True  # merges what was left over, too
        assert (store.block_count, store.block_merges) == (1, 2)
        self._agrees(store, sampled_net, observed)

    def test_built_listener_that_raises_loses_nothing(
        self, sampled_net, events
    ):
        observed = sampled_net.observed_events(events)[:200]
        store = StreamingEventStore(sampled_net, compact_every=10**9)
        store.append_events(observed)
        fired = []

        def listener(s, phase):
            fired.append(phase)
            if fired == ["built"]:
                raise RuntimeError("injected listener failure")

        store.on_compact(listener)
        generation = store.generation
        with pytest.raises(RuntimeError, match="injected"):
            store.compact()
        assert (store.tail_events, store.block_count) == (200, 0)
        assert (store.compactions, store.generation) == (0, generation)
        self._agrees(store, sampled_net, observed)

        assert store.compact() is True
        assert fired == ["built", "built", "swapped"]
        assert (store.tail_events, store.block_count) == (0, 1)
        self._agrees(store, sampled_net, observed)


# ----------------------------------------------------------------------
# CompiledTrackingForm.to_columns — what block merges and snapshots read
# ----------------------------------------------------------------------
class TestCompiledAppendRegression:
    EVENTS = [("a", "b", 1.0), ("b", "c", 2.0), ("c", "a", 3.0),
              ("b", "a", 4.0), ("a", "b", 5.0)]

    def test_to_columns_round_trip(self):
        interner = EdgeInterner()
        codes = np.array([interner.codes[u, v] for u, v, _ in self.EVENTS])
        ts = np.array([t for _, _, t in self.EVENTS])
        form = CompiledTrackingForm(interner, codes >> 1, codes & 1, ts)
        columns = form.to_columns()
        rebuilt = CompiledTrackingForm(
            interner, columns.edge_id.astype(np.int64),
            columns.direction, columns.t,
        )
        for edge in form.edges():
            assert rebuilt.net_until(edge, 10.0) == form.net_until(edge, 10.0)


# ----------------------------------------------------------------------
# Streaming ↔ batch equivalence grid
# ----------------------------------------------------------------------
class TestStreamingBatchEquivalence:
    @pytest.mark.parametrize("order", ["sorted", "shuffled", "reversed"])
    @pytest.mark.parametrize("compact_every", [64, 256, 10**9])
    def test_streamed_equals_batch(
        self, grid_road, grid_events, order, compact_every
    ):
        batch = _deploy(grid_road, streaming=False)
        batch.ingest_events(grid_events)
        streamed = _deploy(
            grid_road, streaming=True, compact_every=compact_every
        )
        for window in _chunks(_arrange(grid_events, order), 97):
            streamed.ingest_events(window)
        store = streamed.streaming_store
        assert store.total_events == batch._form.total_events

        queries = _battery(streamed.domain, HORIZON, seed=23, n_boxes=8)
        reference = [
            _key(batch.engine().execute(q)) for q in queries
        ]
        for planner in ("python", "auto"):
            engine = QueryEngine(
                streamed.network, store, planner=planner
            )
            got = [_key(engine.execute(q)) for q in queries]
            assert got == reference, (order, compact_every, planner)
        batch.close()
        streamed.close()

    def test_sharded_streaming_equivalence(self, grid_road, grid_events):
        batch = _deploy(grid_road, streaming=False)
        batch.ingest_events(grid_events)
        streamed = _deploy(grid_road, streaming=True, compact_every=128)
        for window in _chunks(_arrange(grid_events, "shuffled"), 173):
            streamed.ingest_events(window)
        queries = _battery(streamed.domain, HORIZON, seed=29, n_boxes=6)
        # Shards partitioned from the streamed store's live events.
        with ShardedQueryEngine(
            streamed.network,
            streamed.streaming_store.snapshot_columns(),
            shards=2,
        ) as engine:
            got = [_key(r) for r in engine.execute_batch(queries)]
        want = [_key(batch.engine().execute(q)) for q in queries]
        assert got == want
        batch.close()
        streamed.close()

    def test_query_during_compaction(self, grid_road, grid_events):
        """A query fired from the ``built`` compaction phase — the new
        block exists but the swap has not happened — must see exactly
        one copy of every event."""
        framework = _deploy(
            grid_road, streaming=True, compact_every=10**9
        )
        framework.ingest_events(grid_events)
        store = framework.streaming_store
        engine = QueryEngine(framework.network, store)
        query = RangeQuery(framework.domain.bounds, 0.0, HORIZON * 0.6)
        before = engine.execute(query).value

        seen = {}

        def probe(s, phase):
            seen[phase] = engine.execute(query).value

        store.on_compact(probe)
        assert store.compact() is True
        assert seen["built"] == before, "mid-compaction double/zero count"
        assert seen["swapped"] == before
        assert engine.execute(query).value == before
        assert store.tail_events == 0 and store.block_count == 1
        framework.close()

    def test_flight_digest_changes_on_append(self, grid_road, grid_events):
        """Satellite: the flight-recorder digest must change on every
        append so repeated rectangles over mutated data never group as
        one query."""
        framework = _deploy(grid_road, streaming=True)
        framework.ingest_events(grid_events[:600])
        box = framework.domain.bounds
        framework.query(box, 0.0, HORIZON)
        first = framework.flight_log().records[-1]
        framework.ingest_events(grid_events[600:700])
        framework.query(box, 0.0, HORIZON)
        second = framework.flight_log().records[-1]
        assert first.generation is not None
        assert second.generation > first.generation
        assert record_dict(first)["digest"] != record_dict(second)["digest"]
        framework.close()

    def test_static_store_digest_stable(self, grid_road, grid_events):
        """On an unchanged store, repeated identical queries keep
        grouping under one digest (the generation is stable)."""
        framework = _deploy(grid_road, streaming=False)
        framework.ingest_events(grid_events[:200])
        box = framework.domain.bounds
        framework.query(box, 0.0, HORIZON)
        framework.query(box, 0.0, HORIZON)
        records = framework.flight_log().records
        assert records[-1].generation == records[-2].generation
        assert (
            record_dict(records[-1])["digest"]
            == record_dict(records[-2])["digest"]
        )
        framework.close()


# ----------------------------------------------------------------------
# Terminal close semantics
# ----------------------------------------------------------------------
class TestClosedFramework:
    def test_close_is_terminal_and_structured(self, grid_road, grid_events):
        framework = _deploy(grid_road, streaming=True)
        framework.ingest_events(grid_events[:100])
        store = framework.streaming_store
        framework.close()
        assert framework.closed
        assert store.closed
        with pytest.raises(QueryError, match="closed"):
            framework.ingest_events(grid_events[:5])
        with pytest.raises(QueryError, match="closed"):
            framework.query(framework.domain.bounds, 0.0, HORIZON)
        with pytest.raises(QueryError, match="closed"):
            framework.query_exact(framework.domain.bounds, 0.0, HORIZON)
        with pytest.raises(QueryError, match="closed"):
            framework.deploy(FrameworkConfig(budget=8))
        framework.close()  # idempotent

    def test_close_leaves_no_thread_behind(self, grid_road, grid_events):
        """Observability runs on the caller's thread: a traced
        streaming framework starts no background thread, so
        ``close()`` has none to leave dangling."""
        import threading

        before = set(threading.enumerate())
        framework = InNetworkFramework.from_road_graph(
            grid_road, instrumentation=Instrumentation(tracer=Tracer())
        )
        framework.deploy(FrameworkConfig(budget=10, seed=3, streaming=True))
        framework.ingest_events(grid_events[:100])
        framework.query(framework.domain.bounds, 0.0, HORIZON)
        framework.close()
        assert set(threading.enumerate()) <= before
        framework.close()  # idempotent

    def test_streaming_requires_exact_store(self):
        with pytest.raises(ConfigurationError, match="streaming"):
            FrameworkConfig(streaming=True, store="linear")
        with pytest.raises(ConfigurationError, match="compact_every"):
            FrameworkConfig(compact_every=0)

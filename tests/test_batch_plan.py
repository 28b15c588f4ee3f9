"""The batch plan: ``execute_batch`` against the one-at-a-time loop.

``QueryEngine.execute_batch`` plans a whole batch columnar and answers
it with one rank-kernel call; ``execute_many`` is the loop it replaced
and stays the reference.  Generated batteries run both on twin
deployments — over the plain, compressed + sketch, streaming and
late-interned stores, under both planners and every ``static_eval`` —
and must agree in every non-timing field of the per-query record
(answer and measured internals), in the counters a query moves and in
the chains the store promoted.  The counted guards at the end keep a
later change from quietly turning the batch back into a loop, or the
one record a query builds back into several.

One difference is by design and therefore not compared: a streaming
store is handed each chain of a batch *once*, with all of its times,
so its blocks count one touch where the loop counts one per query
(answers are unaffected; block-level promotion comes later).
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_query_planner import _deployment

import repro.forms.rank as rank_module
import repro.forms.succinct as succinct_module
import repro.obs.metrics as metrics_module
import repro.query.pipeline as pipeline_module
import repro.query.planner as planner_module
from repro import FrameworkConfig, InNetworkFramework
from repro.forms import (
    CompiledTrackingForm,
    CompressedTrackingForm,
    EdgeCountSketch,
)
from repro.forms.rank import segmented_rank
from repro.forms.succinct import _DECODE_LANES, DEFAULT_BLOCK
from repro.geometry import BBox
from repro.network import FaultConfig, FaultInjector
from repro.obs import FlightRecorder, use_registry
from repro.query import (
    LOWER,
    STATIC,
    TRANSIENT,
    UPPER,
    CompiledQueryPlanner,
    QueryEngine,
    QueryResult,
    RangeQuery,
)
from repro.query.pipeline import PLAN_PHASES
from repro.query.planner import _row_slices
from repro.stream import StreamingEventStore
from repro.trajectories import EventColumns

TICK_BITS = 2
STORES = ("plain", "tiered", "stream", "late")
#: Counters a query moves, whichever way it was executed: every
#: per-query series but the clock readings (``*seconds_total``) and the
#: plan-table outcomes only a batch accounts (checked against the
#: batch's records instead), plus the boundary cache where its touches
#: are the loop's (not on a streaming store, see above).
COUNTED = ("repro_query", "repro_queries_total", "repro_sketch_queries_total")
BATCH_ONLY = "repro_query_batch_cache_total"


class _EarlierInterner:
    """The domain's interner as a store built ``n`` ids ago saw it:
    wall ids from ``n`` on were interned after compile time."""

    def __init__(self, interner, n: int) -> None:
        self._interner, self._n = interner, n

    def __len__(self) -> int:
        return self._n

    def __getattr__(self, name):
        return getattr(self._interner, name)


class World:
    """One deployment's inputs and a pool of boxes that covers every
    plan outcome; stores are built fresh per example (their caches are
    part of what is compared)."""

    def __init__(self) -> None:
        self.network, _, workload = _deployment("organic", 12, seed=37)
        domain = self.network.domain
        self.horizon = workload.horizon
        self.columns = self.network.observed_columns(
            EventColumns.from_events(domain, workload.events(domain))
        )
        self.stored = np.unique(self.columns.t)
        bounds = domain.bounds
        rng = np.random.default_rng(5)
        pool = []
        for _ in range(14):
            pool.append(BBox.from_center(
                (rng.uniform(bounds.min_x, bounds.max_x),
                 rng.uniform(bounds.min_y, bounds.max_y)),
                rng.uniform(0.1, 0.9) * bounds.width,
                rng.uniform(0.1, 0.9) * bounds.height,
            ))
        # The whole map (its upper bound touches EXT and misses), a box
        # off the map (no junction at all) and, per region, the extent
        # of its junctions (single-region chains, shared by boxes).
        pool.append(BBox.from_center(
            bounds.center, 1.2 * bounds.width, 1.2 * bounds.height
        ))
        pool.append(BBox.from_center(
            (bounds.max_x + bounds.width, bounds.max_y), 1.0, 1.0
        ))
        for region in list(self.network.region_ids)[:4]:
            points = [
                domain.position(j)
                for j in self.network.region_junctions(region)
            ]
            if points:
                xs, ys = zip(*points)
                pool.append(BBox(min(xs), min(ys), max(xs), max(ys)))
        self.pool = pool

    def time(self, spec) -> float:
        kind, x = spec
        if kind == "stored":  # tied with a stored timestamp
            return float(self.stored[x % len(self.stored)])
        if kind == "tick":  # on the compressed tier's quantization grid
            return float(x % int(self.horizon * 2 ** TICK_BITS)) / 2 ** TICK_BITS
        return x * self.horizon

    def query(self, pick) -> RangeQuery:
        box, kind, bound, tolerance, a, b = pick
        t1, t2 = sorted((self.time(a), self.time(b)))
        return RangeQuery(
            self.pool[box % len(self.pool)], t1, t2,
            kind=kind, bound=bound, max_error=tolerance,
        )

    def engine(self, store: str, planner: str, static_eval: str, **extra):
        """A fresh store of the named kind under a fresh engine."""
        form, sketch = self.store(store)
        return QueryEngine(
            self.network, form, planner=planner, static_eval=static_eval,
            sketch=sketch, **extra,
        )

    def store(self, store: str):
        """A fresh store of the named kind, and its sketch (or None)."""
        network, columns, sketch = self.network, self.columns, None
        if store == "plain":
            form = network.build_form(columns)
        elif store == "tiered":
            columns = columns.quantized(TICK_BITS)
            form = network.build_form(
                columns, compress=True, tick_bits=TICK_BITS
            )
            sketch = EdgeCountSketch.from_columns(columns, bins=16)
        elif store == "stream":
            form = StreamingEventStore(network, compact_every=211)
            for start in range(0, len(columns), 300):
                form.append_events(
                    columns.select(np.arange(start, min(start + 300, len(columns))))
                )
        else:  # "late": half the wall ids interned after compile time
            n = len(columns.interner) // 2
            early = columns.select(np.flatnonzero(columns.edge_id < n))
            form = CompiledTrackingForm(
                _EarlierInterner(columns.interner, n),
                early.edge_id, early.direction, early.t,
            )
        return form, sketch


@pytest.fixture(scope="module")
def world() -> World:
    return World()


_time = st.one_of(
    st.tuples(st.just("share"), st.floats(0.0, 1.0)),
    st.tuples(st.just("stored"), st.integers(0, 10_000)),
    st.tuples(st.just("tick"), st.integers(0, 1_000_000)),
)
_pick = st.tuples(
    st.integers(0, 40),
    st.sampled_from((STATIC, TRANSIENT)),
    st.sampled_from((LOWER, UPPER)),
    st.sampled_from((None, None, 0.0, 2.0, 1e9)),
    _time,
    _time,
)


def _fields(result):
    """Every field of the record that no clock wrote (``cache_hits``
    and ``stage_s`` describe the execution's shape: their *keys* are
    compared in :meth:`TestBatchEqualsLoop.test_records`)."""
    degradation = result.degradation
    return (
        result.query, result.value, result.missed, result.regions,
        result.edges_accessed, result.nodes_accessed, result.hops,
        result.approximate,
        None if degradation is None else astuple(degradation),
        result.planner, result.junction_count, result.boundary_length,
        result.fanout, result.generation,
    )


def _counted(registry, boundary_cache: bool):
    return sorted(
        (name, sorted(map(tuple, labels)), value)
        for name, labels, value in registry.dump()["counters"]
        if value and (
            name.startswith(COUNTED) and name != BATCH_ONLY
            and not name.endswith("seconds_total")
            or boundary_cache and name == "repro_csr_boundary_cache_total"
        )
    )


def _latency_count(registry) -> int:
    return registry.histogram("repro_query_latency_seconds").count


def _promoted(store):
    if not isinstance(store, CompiledTrackingForm):
        return None  # per block, and by design not the loop's (see above)
    return set(store._boundaries), set(store._seen)


class TestBatchEqualsLoop:
    @pytest.mark.parametrize("planner", ["auto", "python"])
    @pytest.mark.parametrize("store", STORES)
    @settings(max_examples=15, deadline=None)
    @given(
        static_eval=st.sampled_from(("end", "start", "min")),
        batches=st.lists(st.lists(_pick, max_size=30), min_size=1, max_size=3),
    )
    def test_fields_counters_and_promotions(
        self, world, store, planner, static_eval, batches
    ):
        """Consecutive batches (chains promote within and across them)
        on one deployment, the same queries one at a time on its twin."""
        batteries = [[world.query(p) for p in picks] for picks in batches]
        with use_registry() as batched:
            engine = world.engine(store, planner, static_eval)
            got = [engine.execute_batch(qs) for qs in batteries]
        with use_registry() as looped:
            twin = world.engine(store, planner, static_eval)
            want = [twin.execute_many(qs) for qs in batteries]
        for results, expected in zip(got, want):
            assert [_fields(r) for r in results] == [
                _fields(r) for r in expected
            ]
        assert _promoted(engine.store) == _promoted(twin.store)
        promotes = _promoted(engine.store) is not None
        assert _counted(batched, promotes) == _counted(looped, promotes)
        queries = sum(map(len, batteries))
        assert _latency_count(batched) == _latency_count(looped) == queries
        # The batch accounts its plan-table outcomes once per batch:
        # they add up to the records' per-query hit flags.
        outcomes = Counter(
            (table, "hit" if hit else "fill")
            for results in got for r in results
            for table, hit in r.cache_hits.items()
        )
        assert {
            (dict(labels)["cache"], dict(labels)["outcome"]): value
            for name, labels, value in batched.dump()["counters"]
            if name == BATCH_ONLY and value
        } == outcomes

    @pytest.mark.parametrize("store", STORES)
    @settings(max_examples=10, deadline=None)
    @given(
        static_eval=st.sampled_from(("end", "min")),
        picks=st.lists(_pick, min_size=1, max_size=30),
    )
    def test_records(self, world, store, static_eval, picks):
        """One record a query, whichever executor built it: the loop's
        and the batch's agree in every non-timing field, their shape
        fields (``cache_hits``, ``stage_s``) hold exactly the tables
        and stages the query's outcome and the engine's plan table
        imply, and ``dataclasses.replace`` carries all of it over."""
        queries = [world.query(p) for p in picks]
        flight = FlightRecorder(capacity=len(queries))
        batched = world.engine(
            store, "auto", static_eval, flight=flight
        ).execute_batch(queries)
        looped = world.engine(store, "auto", static_eval).execute_many(queries)
        assert all(kept is b for kept, b in zip(flight.records, batched))
        cold = list(PLAN_PHASES.values())
        planned, counted = set(), set()  # pairs in the loop's table
        for b, m in zip(batched, looped):
            assert _fields(b) == _fields(m)
            assert b.junction_count == m.junction_count  # spelled out
            served = b.degradation is not None  # from the sketch
            tables = ["junctions"] + ["regions"] * bool(b.junction_count)
            ran = cold[: len(tables)]
            if not b.missed:
                tables += ["boundary"] + ["sensors"] * (not served)
                ran = cold[:3] + ["integrate", cold[3]]
            pair = (m.query.box, m.query.bound)
            if pair not in planned:  # the loop plans it cold
                assert m.cache_hits == {} and not m.cache_served
                assert sorted(m.stage_s) == sorted(ran)
            else:  # ... and from then on serves it from the table
                assert m.cache_hits == {
                    table: table != "sensors" or pair in counted
                    for table in tables
                }
                recount = "sensors" in tables and pair not in counted
                assert sorted(m.stage_s) == (
                    [cold[3]] * recount + ["integrate"] * (not m.missed)
                )
            planned.add(pair)
            if "sensors" in tables:
                counted.add(pair)
            assert sorted(b.cache_hits) == sorted(tables)
            assert b.cache_served == all(b.cache_hits.values())
            assert (b.shared_fill_s > 0) == (not b.cache_served)
            assert sorted(b.stage_s) == sorted(
                cold[: min(len(tables), 2)] + ["integrate"] * (not b.missed)
            )
            moved = replace(b, value=0.0 if b.missed else b.value + 1.0)
            back = replace(moved, value=b.value)
            assert moved.value == (0.0 if b.missed else b.value + 1.0)
            assert back == b and (moved == b) == b.missed
            for field in fields(QueryResult):
                if field.name != "value":
                    assert getattr(moved, field.name) is getattr(b, field.name)
                assert getattr(back, field.name) == getattr(b, field.name)

    def test_past_the_cache_cap_only_the_answers_are_pinned(self, world):
        """More distinct first-touch chains in one batch than the
        boundary LRU and its seen-once set hold: the batch touches
        chains grouped by chain, the loop in query order, so the two
        evict — and from then on promote — differently.  The answers
        may not differ, and the cap holds either way."""
        columns, cap = world.columns, 3
        queries = [
            RangeQuery(
                box, 0.1 * world.horizon, share * world.horizon,
                kind=(STATIC, TRANSIENT)[i % 2],
            )
            for share in (0.4, 0.7, 0.9)  # every box three times, apart
            for i, box in enumerate(world.pool)
        ]
        runs, compiles = [], []
        for execute in ("execute_batch", "execute_many"):
            with use_registry() as registry:
                form = CompiledTrackingForm(
                    columns.interner, columns.edge_id, columns.direction,
                    columns.t, boundary_cache_size=cap,
                )
                engine = QueryEngine(world.network, form)
                results = [getattr(engine, execute)(queries) for _ in range(2)]
            runs.append([[_fields(r) for r in batch] for batch in results])
            assert len({r.regions for r in results[0] if not r.missed}) > 2 * cap
            assert len(form._boundaries) <= cap and len(form._seen) <= cap
            compiles.append(registry.value(
                "repro_csr_boundary_cache_total", outcome="compile"
            ))
        assert runs[0] == runs[1]
        assert compiles[0] != compiles[1]  # the limit the docstring states

    def test_empty_and_all_miss_batches(self, world):
        engine = world.engine("plain", "auto", "end")
        assert engine.execute_batch([]) == []
        off_map = world.pool[15]
        misses = engine.execute_batch(
            [RangeQuery(off_map, 0.0, t) for t in (1.0, 2.0, 2.0)]
        )
        assert [r.missed for r in misses] == [True] * 3
        assert [r.value for r in misses] == [0.0] * 3

    def test_appends_between_batches_are_seen(self, world):
        """batch, append, batch on a streaming store: every batch
        reads the store as of the generation it started on — answers
        and flight-record generations equal the loop's on a twin."""
        columns, cut = world.columns, len(world.columns) // 2
        windows = [np.arange(0, cut), np.arange(cut, len(columns))]
        queries = [
            RangeQuery(
                box, 0.2 * world.horizon, 0.8 * world.horizon,
                kind=kind, bound=bound,
            )
            for box in world.pool[:8]
            for kind in (STATIC, TRANSIENT)
            for bound in (LOWER, UPPER)
        ]
        runs = []
        for execute in ("execute_batch", "execute_many"):
            store = StreamingEventStore(world.network, compact_every=211)
            flight = FlightRecorder(capacity=4 * len(queries))
            engine = QueryEngine(world.network, store, flight=flight)
            results = []
            for window in windows:
                store.append_events(columns.select(window))
                results.append(getattr(engine, execute)(queries))
            runs.append((
                [[_fields(r) for r in batch] for batch in results],
                [record.generation for record in flight.records],
            ))
        assert runs[0] == runs[1]
        before, after = runs[0][0]
        assert before != after  # the second window moved some count
        assert len(set(runs[0][1])) == 2  # one generation per batch


class TestBoundedScratch:
    def test_row_slices_cover_every_row_under_the_constant(self):
        cells = planner_module._SCRATCH_CELLS
        for rows, universe in ((0, 7), (1, 7), (5000, 459), (40, 3 * cells)):
            slices = _row_slices(rows, universe)
            assert [s for s, _ in slices] == [0, *(e for _, e in slices)][:-1]
            assert (slices[-1][1] if slices else 0) == rows
            for start, stop in slices:
                assert stop - start == 1 or (stop - start) * universe <= cells

    def test_sliced_plan_equals_unsliced(self, world, monkeypatch):
        """A scratch bound of a few rows cuts every step of the plan
        into many slices; nothing an answer carries may move."""
        rng = np.random.default_rng(9)
        queries = [
            RangeQuery(
                world.pool[rng.integers(len(world.pool))],
                0.0, rng.uniform(0.0, world.horizon),
                kind=(STATIC, TRANSIENT)[i % 2], bound=(LOWER, UPPER)[i % 3 == 0],
            )
            for i in range(120)
        ]
        want = world.engine("plain", "auto", "end").execute_batch(queries)
        monkeypatch.setattr(planner_module, "_SCRATCH_CELLS", 700)
        got = world.engine("plain", "auto", "end").execute_batch(queries)
        assert [_fields(r) for r in got] == [_fields(r) for r in want]


class TestKernelAtBatchSize:
    @pytest.mark.parametrize("per_lane", [True, False])
    def test_ordered_lanes_equal_searchsorted(self, per_lane):
        """Past a thousand lanes the kernel orders them by segment
        length and stops carrying the finished ones: same ranks."""
        rng = np.random.default_rng(3)
        lens = rng.integers(0, 700, size=3000) * (rng.random(3000) < 0.8)
        hi = np.cumsum(lens)
        lo = hi - lens
        values = np.concatenate(
            [np.sort(rng.integers(0, 50, size=n)) for n in lens]
        ).astype(np.float64)
        t = rng.integers(-1, 51, size=3000).astype(np.float64)
        if not per_lane:
            t = t[0]
        expected = [
            np.searchsorted(values[a:b], x, side="right")
            for a, b, x in zip(lo, hi, np.broadcast_to(t, lo.shape))
        ]
        assert segmented_rank(values, lo, hi, t).tolist() == expected


def _hot(world, n: int = 1000):
    """``n`` queries replaying the pool's boxes — misses among them —
    over every kind and bound."""
    return [
        RangeQuery(
            world.pool[i % len(world.pool)], 0.0, 0.5 * world.horizon,
            kind=(STATIC, TRANSIENT)[i % 2], bound=(LOWER, UPPER)[i // 2 % 2],
        )
        for i in range(n)
    ]


def _distinct_boxes(world, n: int = 500):
    """``n`` cold queries on distinct random boxes, every kind and
    bound."""
    rng = np.random.default_rng(17)
    bounds = world.network.domain.bounds
    queries = [
        RangeQuery(
            BBox.from_center(
                (rng.uniform(bounds.min_x, bounds.max_x),
                 rng.uniform(bounds.min_y, bounds.max_y)),
                rng.uniform(0.05, 0.6) * bounds.width,
                rng.uniform(0.05, 0.6) * bounds.height,
            ),
            0.0, rng.uniform(0.0, world.horizon),
            kind=(STATIC, TRANSIENT)[i % 2], bound=(LOWER, UPPER)[i % 4 < 2],
        )
        for i in range(n)
    ]
    assert len({q.box for q in queries}) == n
    return queries


class TestCountedGuard:
    def test_cold_batch_is_one_plan_and_one_kernel_call(
        self, world, monkeypatch
    ):
        """500 distinct boxes, nothing cached: the batch may call the
        rank kernel at most 4 times and none of the one-query planner
        steps — counted, not timed."""
        queries = _distinct_boxes(world)
        engine = world.engine("plain", "auto", "end")
        calls = {"segmented_rank": 0}

        def counting_rank(*args):
            calls["segmented_rank"] += 1
            return segmented_rank(*args)

        monkeypatch.setattr(rank_module, "segmented_rank", counting_rank)
        for step in ("junction_ids", "region_ids", "boundary", "chain_sensors"):
            calls[step] = 0

            def counting_step(self, *args, _step=step, _inner=getattr(
                CompiledQueryPlanner, step
            )):
                calls[_step] += 1
                return _inner(self, *args)

            monkeypatch.setattr(CompiledQueryPlanner, step, counting_step)
        results = engine.execute_batch(queries)
        assert sum(not r.missed for r in results) > 100
        assert 1 <= calls.pop("segmented_rank") <= 4
        assert calls == dict.fromkeys(calls, 0)
        # The same engine, one query at a time, takes every step for a
        # pair the batch did not plan.
        flipped = LOWER if queries[0].bound == UPPER else UPPER
        engine.execute(replace(queries[0], bound=flipped))
        assert calls["junction_ids"] == 1

    @pytest.mark.parametrize("store", ["plain", "stream"])
    def test_cold_single_query_searches_the_rank_index(
        self, world, store, monkeypatch
    ):
        """A single cold query's chain is a few hundred lanes: they
        rank through the index's two searches, never the halving."""
        calls, searched = [], []
        monkeypatch.setattr(
            rank_module, "segmented_rank",
            lambda *args: calls.append(args) or segmented_rank(*args),
        )
        rank = rank_module.RankIndex.rank
        monkeypatch.setattr(
            rank_module.RankIndex, "rank",
            lambda index, *args: searched.append(args) or rank(index, *args),
        )
        engine = world.engine(store, "auto", "end")
        results = [engine.execute(q) for q in _distinct_boxes(world, 40)]
        assert sum(not r.missed for r in results) > 10
        assert len(searched) > 5 and calls == []

    def test_compressed_batch_decodes_each_straddled_block_once(
        self, world, monkeypatch
    ):
        """500 distinct boxes on a compressed store that ranks every
        touch: the blocks handed to ``_Blocks.decode`` number no more
        than the distinct blocks the batch's lanes straddle (counted
        from the plain form's ranks, not from the decoder), and the
        rank kernel runs a bounded number of times."""
        queries = _distinct_boxes(world)
        columns = world.columns.quantized(TICK_BITS)
        args = (
            columns.interner, columns.edge_id, columns.direction, columns.t
        )
        plain = CompiledTrackingForm(*args, boundary_cache_size=0)
        form = CompressedTrackingForm(
            *args, boundary_cache_size=0, tick_bits=TICK_BITS
        )
        lanes, decoded = [], []
        calls = {"segmented_rank": 0}
        rank_lanes, decode = form._rank_lanes, succinct_module._Blocks.decode

        def counting_rank(*args):
            calls["segmented_rank"] += 1
            return segmented_rank(*args)

        def recording_lanes(rows, t):
            lanes.append((rows, t))
            return rank_lanes(rows, t)

        def counting_decode(blocks, take):
            decoded.append(take.size)
            return decode(blocks, take)

        monkeypatch.setattr(succinct_module, "segmented_rank", counting_rank)
        monkeypatch.setattr(form, "_rank_lanes", recording_lanes)
        monkeypatch.setattr(
            succinct_module._Blocks, "decode", counting_decode
        )
        got =QueryEngine(world.network, form).execute_batch(queries)
        want = QueryEngine(world.network, plain).execute_batch(queries)
        assert [_fields(r) for r in got] == [_fields(r) for r in want]
        assert 1 <= calls["segmented_rank"] <= 4
        straddled, inside = set(), 0
        for rows, t in lanes:
            # Lane (row, t) ranks r values: with r >= 1 and a block to
            # decode, it straddles block (r - 1) // 32 of its segment,
            # the last one at most.
            rank = plain._rank_lanes(rows, t)
            size = np.diff(plain._rows)[rows]
            at = (rank > 0) & (size > 1)
            last = -(-(size[at] - 1) // DEFAULT_BLOCK) - 1
            block = np.minimum((rank[at] - 1) // DEFAULT_BLOCK, last)
            straddled |= set(zip(rows[at].tolist(), block.tolist()))
            inside += int(at.sum())
        assert inside >= _DECODE_LANES  # the batch takes the batch path
        assert 0 < sum(decoded) <= len(straddled) < inside

    def test_one_record_object_per_query(self, world):
        """A default-bundle query — null tracer, flight recorder on —
        allocates one record in ``finish`` and nothing beside it: after
        1 000 queries whose results the caller keeps, exactly 1 000 new
        gc-tracked objects are of a class defined under ``repro``, all
        of them :class:`~repro.query.QueryResult`, and the flight ring
        holds those same objects (no ``FlightRecord``, no provenance
        object, no second copy).  Plans and chains are gone by then;
        the boundary cache is warm before counting starts."""
        flight = FlightRecorder(capacity=2000)  # nothing evicted below
        engine = world.engine("plain", "auto", "end", flight=flight)
        queries = [
            RangeQuery(box, 0.0, 0.5 * world.horizon) for box in world.pool
        ]
        engine.execute_many(queries)
        engine.execute_many(queries)  # second touch: chains promoted

        def ours():
            gc.collect()
            return Counter(
                type(o) for o in gc.get_objects()
                if str(type(o).__module__).startswith("repro")
            )

        before = ours()
        kept = engine.execute_many(
            [queries[i % len(queries)] for i in range(1000)]
        )
        grown = ours() - before
        assert grown == {QueryResult: 1000}, grown
        assert all(a is b for a, b in zip(flight.records[-1000:], kept))

    def test_one_record_object_per_batched_query(self, world):
        """The same for a warm 1 000-query ``execute_batch``: its plan,
        attribution and accounting leave nothing behind but the
        records the flight ring holds."""
        flight = FlightRecorder(capacity=4000)
        engine = world.engine("plain", "auto", "end", flight=flight)
        queries = _hot(world)
        engine.execute_batch(queries)
        engine.execute_batch(queries)  # second touch: chains promoted

        def ours():
            gc.collect()
            return Counter(
                type(o) for o in gc.get_objects()
                if str(type(o).__module__).startswith("repro")
            )

        before = ours()
        kept = engine.execute_batch(queries)
        grown = ours() - before
        assert grown == {QueryResult: 1000}, grown
        assert all(a is b for a, b in zip(flight.records[-1000:], kept))

    def test_warm_batch_accounts_each_series_once(self, world, monkeypatch):
        """A warm 1 000-query batch moves every instrument its engine's
        accounting binds at most once per label set, and the latency
        histogram at most twice (answered and missed share one
        ``elapsed`` each) — counted, not timed."""
        engine = world.engine("plain", "auto", "end")
        queries = _hot(world)
        engine.execute_batch(queries)
        engine.execute_batch(queries)
        touched = Counter()
        for kind, method in (("Counter", "inc"), ("Histogram", "observe")):
            inner = getattr(getattr(metrics_module, kind), method)

            def counting(self, *args, _inner=inner):
                touched[id(self)] += 1
                return _inner(self, *args)

            monkeypatch.setattr(getattr(metrics_module, kind), method, counting)
        results = engine.execute_batch(queries)
        acct = engine._acct
        bound = [
            acct.sensors, acct.edges, acct.seconds, acct.fill_seconds,
            *acct.batch_cache.values(), *acct.sketch.values(),
            *(c for pair in acct._by_class.values() for c in pair),
            *(s for series in acct._by_strategy.values() for s in series),
        ]
        assert len(acct._by_class) == 4  # every kind × bound in the batch
        assert {r.missed for r in results} == {True, False}
        assert max(touched[id(instrument)] for instrument in bound) == 1
        assert touched[id(acct.latency)] == 2


_STEPS = ("execute", "execute_batch", "faulty", "append")
#: Plan phases a query served from the plan table never runs.
_ROUTE_AND_CHAIN = set(list(PLAN_PHASES.values())[:3])


class TestPlanTable:
    @pytest.mark.parametrize("planner", ["auto", "python"])
    @pytest.mark.parametrize("store", STORES)
    @settings(max_examples=10, deadline=None)
    @given(
        static_eval=st.sampled_from(("end", "min")),
        steps=st.lists(
            st.tuples(
                st.sampled_from(_STEPS), st.lists(_pick, min_size=1, max_size=8)
            ),
            min_size=1, max_size=6,
        ),
    )
    def test_long_lived_engine_equals_fresh_ones(
        self, world, store, planner, static_eval, steps
    ):
        """One engine answers a generated sequence of single, batched
        and fault-injecting calls — and, on the streaming store,
        appends in between; a fresh engine answers each call.  Answers
        and plan internals agree, and the long-lived engine's records
        carry hits exactly for the pairs it planned before (the pool
        repeats pairs, and holds misses and EXT-touching upper bounds)."""
        windows = []
        if store == "stream":  # half the events now, the rest appended
            columns, sketch = world.columns, None
            form = StreamingEventStore(world.network, compact_every=211)
            windows = [
                np.arange(start, min(start + 300, len(columns)))
                for start in range(0, len(columns), 300)
            ]
            cut = len(windows) // 2
            form.append_events(columns.select(np.concatenate(windows[:cut])))
            windows = windows[cut:]
        else:
            form, sketch = world.store(store)
        sensors = world.network.sensors

        def engine(faulty=False):
            # Crashes only: a deterministic dispatch, whoever runs it.
            faults = FaultInjector(FaultConfig(), sensors, crashed=sensors[::2])
            return QueryEngine(
                world.network, form, planner=planner, static_eval=static_eval,
                sketch=sketch, faults=faults if faulty else None,
            )

        engines = {False: engine(), True: engine(faulty=True)}
        planned = {False: set(), True: set()}
        for step, picks in steps:
            if step == "append":
                if windows:
                    form.append_events(world.columns.select(windows.pop(0)))
                continue
            queries = [world.query(p) for p in picks]
            faulty = step == "faulty"
            if step == "execute_batch":
                got = engines[False].execute_batch(queries)
                want = engine().execute_batch(queries)
            else:
                got = [engines[faulty].execute(q) for q in queries]
                want = [engine(faulty).execute(q) for q in queries]
            seen = planned[faulty]
            before = set(seen)
            for g, w in zip(got, want):
                assert _fields(g) == _fields(w)
                pair = (g.query.box, g.query.bound)
                if pair in seen:
                    assert g.cache_hits and all(
                        hit for table, hit in g.cache_hits.items()
                        if table != "sensors"
                    )
                    # Served from the table: no plan phase ran for it.
                    assert pair not in before or not (
                        _ROUTE_AND_CHAIN & set(g.stage_s)
                    )
                elif step == "execute_batch":
                    assert not g.cache_hits.get("regions", False)
                else:
                    assert g.cache_hits == {}
                seen.add(pair)

    def test_warm_pairs_plan_nothing(self, world, monkeypatch):
        """Pairs an engine planned before — one at a time or batched —
        take none of the one-query planner steps on ``execute`` and
        none of the batch steps on ``execute_batch``: counted, not
        timed."""
        queries = _distinct_boxes(world, 60)
        engine = world.engine("plain", "auto", "end")
        engine.execute_batch(queries[:30])
        engine.execute_many(queries[30:])
        steps = (
            "junction_ids", "region_ids", "boundary", "chain_sensors",
            "batch_junctions", "batch_regions", "batch_chains", "batch_sensors",
        )
        calls = dict.fromkeys(steps, 0)
        for step in steps:

            def counting_step(self, *args, _step=step, _inner=getattr(
                CompiledQueryPlanner, step
            )):
                calls[_step] += 1
                return _inner(self, *args)

            monkeypatch.setattr(CompiledQueryPlanner, step, counting_step)
        assert all(r.cache_served for r in engine.execute_many(queries))
        assert all(r.cache_served for r in engine.execute_batch(queries[::-1]))
        assert calls == dict.fromkeys(steps, 0)
        flipped = LOWER if queries[0].bound == UPPER else UPPER
        engine.execute(replace(queries[0], bound=flipped))
        assert calls["junction_ids"] == 1

    def test_cap_evicts_the_least_recently_used_pair(self, world, monkeypatch):
        assert pipeline_module.PLAN_TABLE_ROWS == 1024
        monkeypatch.setattr(pipeline_module, "PLAN_TABLE_ROWS", 3)
        a, b, c, d, e = (
            RangeQuery(box, 0.0, world.horizon) for box in world.pool[:5]
        )
        engine = world.engine("plain", "auto", "end")
        table = engine._stage.table
        for query in (a, b, c, a, d):  # a is used again: b leaves first
            engine.execute(query)
            assert len(table) <= 3
        assert engine.execute(a).cache_served  # recently used: kept
        assert engine.execute(b).cache_hits == {}  # evicted: planned again
        results = engine.execute_batch([a, b, c, d, e])
        assert [r.cache_served for r in results] == [
            True, True, False, True, False
        ]
        assert len(table) == 3

    def test_a_redeployed_framework_plans_afresh(
        self, organic_domain, workload
    ):
        fw = InNetworkFramework(organic_domain)
        config = FrameworkConfig(selector="quadtree", budget=20, seed=3)
        fw.deploy(config)
        fw.ingest_trips(workload.trips)
        bounds = organic_domain.bounds
        box = BBox.from_center(
            bounds.center, 0.5 * bounds.width, 0.5 * bounds.height
        )
        first, again = (fw.query(box, 0.0, workload.horizon) for _ in "ab")
        assert first.cache_hits == {} and again.cache_served
        fw.deploy(config)
        assert fw.query(box, 0.0, workload.horizon).cache_hits == {}
        fw.close()

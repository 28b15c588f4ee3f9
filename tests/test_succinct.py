"""Succinct storage tier: codec round trips, exact equivalence, sketch.

Covers the delta/bit-packed codec corners (empty edges, single-event
edges, duplicate timestamps, width-0 blocks), the exactness contract
(compressed answers byte-identical to an uncompressed compiled form
built from the same quantized columns, through the direct integration
API, the sharded scatter path and streaming compaction points),
append-merge re-encoding with generation/digest stability, the
error-bounded sketch fast path
(containment, engine gating, fallback, metrics) and the unified
storage-report schema across every store.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_query_planner import _battery, _deployment, _key

from repro.core import FrameworkConfig, InNetworkFramework
from repro.errors import ConfigurationError
from repro.forms import CompiledTrackingForm, CompressedTrackingForm
from repro.forms.sketch import EdgeCountSketch
from repro.forms.succinct import (
    MAX_WIDTH,
    _encode,
    _unpack_deltas,
    quantize_times,
)
from repro.obs import use_registry
from repro.query import QueryEngine, RangeQuery, ShardedQueryEngine
from repro.query import TRANSIENT
from repro.stream import StreamingEventStore
from repro.trajectories import (
    CrossingEvent,
    EventColumns,
    WorkloadConfig,
    generate_workload,
)

HORIZON = 86400.0
TICK_BITS = 10


# ----------------------------------------------------------------------
# Codec unit round trips
# ----------------------------------------------------------------------
def _pack_deltas(deltas, width):
    """Bit-pack non-negative int64 deltas at ``width`` bits, MSB first."""
    if width == 0:
        return np.empty(0, dtype=np.uint8)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    bits = ((deltas[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits.ravel())


def _encode_by_loop(values, rows, tick_bits, block):
    """The encoder one segment and one block at a time: the oracle of
    the vectorised :func:`~repro.forms.succinct._encode`.  Returns
    ``(heads, widths, payload)``."""
    scale = float(2.0 ** tick_bits)
    ticks = np.rint(np.asarray(values, dtype=np.float64) * scale).astype(
        np.int64
    )
    nonempty = np.flatnonzero(np.diff(rows))
    heads = np.empty(len(nonempty), dtype=np.int64)
    widths, chunks = [], []
    for rank, row in enumerate(nonempty):
        lo, hi = int(rows[row]), int(rows[row + 1])
        heads[rank] = ticks[lo]
        deltas = np.diff(ticks[lo:hi])
        for start in range(0, len(deltas), block):
            chunk = deltas[start:start + block]
            width = int(chunk.max()).bit_length()
            widths.append(width)
            if width:
                chunks.append(_pack_deltas(chunk, width))
    if widths and max(widths) > MAX_WIDTH:
        raise ValueError("block width")
    payload = np.concatenate(chunks) if chunks else np.empty(0, np.uint8)
    return heads, np.asarray(widths, dtype=np.uint8), payload


class TestCodec:
    @pytest.mark.parametrize("width", [1, 3, 8, 17, 33])
    def test_pack_unpack_round_trip(self, width):
        rng = np.random.default_rng(width)
        deltas = rng.integers(0, 2 ** width, size=100, dtype=np.int64)
        packed = _pack_deltas(deltas, width)
        assert np.array_equal(_unpack_deltas(packed, 100, width), deltas)

    def test_width_zero_is_empty(self):
        deltas = np.zeros(40, dtype=np.int64)
        assert _pack_deltas(deltas, 0).size == 0
        assert np.array_equal(
            _unpack_deltas(np.empty(0, np.uint8), 40, 0), deltas
        )

    def test_quantize_idempotent_monotone_exact(self):
        rng = np.random.default_rng(5)
        t = np.sort(rng.uniform(0.0, 1e5, 500))
        q = quantize_times(t, TICK_BITS)
        assert np.array_equal(quantize_times(q, TICK_BITS), q)
        assert np.all(np.diff(q) >= 0.0)
        scale = float(2.0 ** TICK_BITS)
        ticks = np.rint(q * scale)
        assert np.array_equal(ticks / scale, q)

    @settings(max_examples=80, deadline=None)
    @given(
        segments=st.lists(
            # Per row: empty, or deltas of up to 20 bits — zeros give
            # width-0 blocks — shifted up by 0 or 37 bits (fields up to
            # the 57 the decoder reads, every tick exact in float64).
            st.none() | st.tuples(
                st.sampled_from([0, 37]),
                st.lists(
                    st.just(0) | st.integers(0, 3)
                    | st.integers(0, 2 ** 20 - 1),
                    max_size=40,
                ),
            ),
            max_size=9,
        ),
        block=st.sampled_from([1, 3, 8, 32]),
        tick_bits=st.integers(0, 2),
    )
    def test_vectorised_encoder_equals_loop(self, segments, block, tick_bits):
        """Heads, widths and payload byte-identical to the loop
        encoder's, and the decode index's directory is each unit's
        first value."""
        ticks, lens = [], []
        for segment in segments:
            if segment is None:
                lens.append(0)
                continue
            shift, deltas = segment
            head = -(2 ** 62) if shift else 0
            row = head + (np.cumsum([0] + deltas, dtype=np.int64) << shift)
            ticks.append(row)
            lens.append(row.size)
        ticks = np.concatenate(ticks or [np.empty(0, np.int64)])
        rows = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
        values = ticks * 2.0 ** -tick_bits
        encoded = _encode(values, rows, tick_bits, block)
        heads, widths, payload = _encode_by_loop(
            values, rows, tick_bits, block
        )
        assert np.array_equal(encoded.heads, heads)
        assert encoded.widths.dtype == np.uint8
        assert np.array_equal(encoded.widths, widths)
        assert encoded.payload.dtype == np.uint8
        assert np.array_equal(encoded.payload, payload)
        assert encoded.directory.tolist() == [
            ticks[lo + k]
            for lo, n in zip(rows[:-1], lens) if n
            for k in range(0, max(n - 1, 1), block)
        ]

    @pytest.mark.parametrize("block", [1, 8, 32])
    def test_58_bit_delta_is_refused(self, block):
        values = np.array([0.0, 5.0, 5.0 + 2.0 ** 58, 2.0 ** 59])
        rows = np.array([0, 1, 4])
        with pytest.raises(ValueError, match="block width"):
            _encode_by_loop(values, rows, 0, block)
        with pytest.raises(ValueError, match="block width"):
            _encode(values, rows, 0, block)
        # Two one-event rows: nothing to pack.
        assert _encode(values[:2], np.arange(3), 0, block).widths.size == 0


# ----------------------------------------------------------------------
# Compressed form vs plain compiled form (same quantized columns)
# ----------------------------------------------------------------------
def _random_columns(interner, n_events, seed, duplicates=False):
    """Columnar events over a real interner, with deliberate corners:
    edge 0 never used (empty), one single-event edge, optional heavy
    timestamp duplication."""
    rng = np.random.default_rng(seed)
    n_ids = len(interner)
    edge_id = rng.integers(1, n_ids, size=n_events).astype(np.int32)
    edge_id[0] = n_ids - 1  # guaranteed single-event edge candidate
    direction = rng.integers(0, 2, size=n_events).astype(np.int8)
    if duplicates:
        t = np.sort(
            rng.choice(np.linspace(0.0, HORIZON, 97), size=n_events)
        )
    else:
        t = np.sort(rng.uniform(0.0, HORIZON, size=n_events))
    t = quantize_times(t, TICK_BITS)
    return EventColumns(
        interner=interner, edge_id=edge_id, direction=direction, t=t
    )


@pytest.fixture(scope="module")
def forms_pair():
    """(plain, compressed) built from identical quantized columns."""
    network, _, workload = _deployment("organic", 12, seed=37)
    domain = network.domain
    columns = EventColumns.from_events(
        domain, workload.events(domain)
    ).quantized(TICK_BITS)
    plain = CompiledTrackingForm(
        columns.interner, columns.edge_id, columns.direction, columns.t
    )
    compressed = CompressedTrackingForm(
        columns.interner,
        columns.edge_id,
        columns.direction,
        columns.t,
        tick_bits=TICK_BITS,
    )
    return network, columns, plain, compressed


class TestCompressedEquivalence:
    def test_every_segment_identical(self, forms_pair):
        _, _, plain, compressed = forms_pair
        assert plain.total_events == compressed.total_events
        for d in (0, 1):
            n = len(plain._offsets[d]) - 1
            for eid in range(n):
                assert np.array_equal(
                    plain._segment_ids(eid, d),
                    compressed._segment_ids(eid, d),
                ), (eid, d)

    def test_to_columns_round_trip(self, forms_pair):
        _, columns, _, compressed = forms_pair
        out = compressed.to_columns(columns.interner)
        back = CompressedTrackingForm(
            out.interner, out.edge_id, out.direction, out.t,
            tick_bits=TICK_BITS,
        )
        assert back.total_events == compressed.total_events
        for d in (0, 1):
            assert np.array_equal(
                back._direction_values(d),
                compressed._direction_values(d),
            )

    def test_random_chain_integration_identical(self, forms_pair):
        _, _, plain, compressed = forms_pair
        rng = np.random.default_rng(11)
        n_ids = len(plain._offsets[0]) - 1
        for _ in range(60):
            size = int(rng.integers(1, 12))
            wall_ids = rng.integers(0, n_ids, size=size).astype(np.int64)
            signs = rng.choice([-1, 1], size=size).astype(np.int64)
            t1, t2 = np.sort(rng.uniform(0.0, HORIZON, 2))
            assert plain.integrate_until_ids(wall_ids, signs, t2) == \
                compressed.integrate_until_ids(wall_ids, signs, t2)
            assert plain.integrate_between_ids(wall_ids, signs, t1, t2) == \
                compressed.integrate_between_ids(wall_ids, signs, t1, t2)

    def test_empty_single_and_duplicate_edges(self, forms_pair):
        network, *_ = forms_pair
        interner = network.domain.edge_interner
        for dup in (False, True):
            columns = _random_columns(interner, 400, seed=3, duplicates=dup)
            plain = CompiledTrackingForm(
                interner, columns.edge_id, columns.direction, columns.t
            )
            compressed = CompressedTrackingForm(
                interner, columns.edge_id, columns.direction, columns.t,
                tick_bits=TICK_BITS,
            )
            for d in (0, 1):
                assert np.array_equal(
                    plain._direction_values(d),
                    compressed._direction_values(d),
                )
            # Edge 0 is never referenced: empty in both directions.
            assert compressed._segment_ids(0, 0).size == 0
            assert compressed._segment_ids(0, 1).size == 0

    def test_all_duplicate_timestamps_pack_to_zero_payload(self, forms_pair):
        network, *_ = forms_pair
        interner = network.domain.edge_interner
        n = 200
        columns = EventColumns(
            interner=interner,
            edge_id=np.full(n, 1, dtype=np.int32),
            direction=np.zeros(n, dtype=np.int8),
            t=np.full(n, 1024.0),
        )
        form = CompressedTrackingForm(
            interner, columns.edge_id, columns.direction, columns.t,
            tick_bits=TICK_BITS,
        )
        assert form.storage_report()["components"]["payload"] == 0
        assert np.array_equal(form._segment_ids(1, 0), columns.t)

    def test_digest_stable_across_widths_and_generations(self, forms_pair):
        """compile_boundary_ids canonicalises chain dtypes, so the
        same chain compiles to one cache entry regardless of caller
        widths."""
        _, _, _, compressed = forms_pair
        wall64 = np.array([3, 7, 11], dtype=np.int64)
        wall32 = wall64.astype(np.int32)
        signs64 = np.array([1, -1, 1], dtype=np.int64)
        signs8 = signs64.astype(np.int8)
        before = len(compressed._boundaries)
        c1 = compressed.compile_boundary_ids(wall64, signs64)
        c2 = compressed.compile_boundary_ids(wall32, signs8)
        assert len(compressed._boundaries) == before + 1
        assert np.array_equal(c1[0], c2[0])
        assert np.array_equal(c1[1], c2[1])

    def test_compression_beats_plain_storage(self, forms_pair):
        _, _, plain, compressed = forms_pair
        plain_bytes = plain.storage_report()["total_bytes"]
        comp_bytes = compressed.storage_report()["total_bytes"]
        # The default-scale size is the end-to-end benchmark's
        # ``store_bytes_per_event`` on ``tiered_tolerant`` (any
        # worsening fails ``compare.py``); this small fixture just has
        # to show a real reduction.
        assert comp_bytes < plain_bytes / 2


# ----------------------------------------------------------------------
# Planner equivalence grid (compiled + sharded + static_eval)
# ----------------------------------------------------------------------
class TestPlannerEquivalence:
    @pytest.mark.parametrize("static_eval", ["end", "start", "min"])
    def test_compiled_planner_field_identical(self, forms_pair, static_eval):
        network, _, plain, compressed = forms_pair
        battery = _battery(network.domain, HORIZON, seed=61)
        reference = QueryEngine(
            network, plain, static_eval=static_eval
        ).execute_batch(battery)
        got = QueryEngine(
            network, compressed, static_eval=static_eval
        ).execute_batch(battery)
        assert [_key(r) for r in got] == [_key(r) for r in reference]

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_planner_field_identical(self, forms_pair, shards):
        """Shards over the quantized columns answer what the compressed
        form answers in one process."""
        network, columns, _, compressed = forms_pair
        battery = _battery(network.domain, HORIZON, seed=61)
        reference = QueryEngine(network, compressed).execute_batch(battery)
        with ShardedQueryEngine(network, columns, shards=shards) as engine:
            results = engine.execute_batch(battery)
        assert [_key(r) for r in results] == [_key(r) for r in reference]

    def test_streaming_compaction_points(self, forms_pair):
        """Compressed and plain streaming stores agree at every
        compaction point (tail-only, mixed, multi-block)."""
        network, columns, *_ = forms_pair
        interner = network.domain.edge_interner
        plain = StreamingEventStore(network, compact_every=400)
        comp = StreamingEventStore(
            network, compact_every=400, compress=True, tick_bits=TICK_BITS
        )
        battery = _battery(network.domain, HORIZON, seed=29, n_boxes=6)
        events = [
            CrossingEvent(*interner.edge(int(eid))[:: 1 if d == 0 else -1], t)
            for eid, d, t in zip(
                columns.edge_id[:1500],
                columns.direction[:1500],
                columns.t[:1500],
            )
        ]
        for start in range(0, len(events), 300):
            window = events[start:start + 300]
            plain.append_events(window)
            comp.append_events(window)
            reference = QueryEngine(network, plain).execute_batch(battery)
            got = QueryEngine(network, comp).execute_batch(battery)
            assert [_key(r) for r in got] == [_key(r) for r in reference]
        # Multiple compactions ran, so the grid covered tail-only,
        # mixed and post-merge states (merges fold into one block).
        assert comp.compactions >= 1
        assert comp.block_count >= 1


# ----------------------------------------------------------------------
# Framework threading
# ----------------------------------------------------------------------
class TestFrameworkCompressed:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FrameworkConfig(compress=True, store="linear")
        with pytest.raises(ConfigurationError):
            FrameworkConfig(tick_bits=21)
        with pytest.raises(ConfigurationError):
            FrameworkConfig(sketch_bins=8, streaming=True)
        with pytest.raises(ConfigurationError):
            FrameworkConfig(sketch_bins=8, store="histogram")

    def test_framework_compressed_matches_plain(self, organic_domain,
                                                workload):
        results = {}
        for compress in (False, True):
            fw = InNetworkFramework(organic_domain)
            fw.deploy(
                FrameworkConfig(
                    budget=20, seed=3, compress=compress,
                    tick_bits=TICK_BITS,
                )
            )
            fw.ingest_trips(workload.trips)
            battery = _battery(organic_domain, HORIZON, seed=47, n_boxes=8)
            engine = fw.engine()
            results[compress] = [
                _key(r) for r in engine.execute_many(battery)
            ]
            if compress:
                report = fw.storage_report()
                assert report["stores"][0]["store"] == (
                    "CompressedTrackingForm"
                )
                assert fw.storage_bytes == (
                    report["stores"][0]["total_bytes"]
                )
            fw.close()
        assert results[True] == results[False]


# ----------------------------------------------------------------------
# Sketch tier
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sketch_deployment():
    network, _, workload = _deployment("organic", 12, seed=37)
    domain = network.domain
    columns = EventColumns.from_events(domain, workload.events(domain))
    observed = network.observed_columns(columns)
    form = network.build_form(columns)
    sketch = EdgeCountSketch.from_columns(observed, bins=64)
    return network, form, sketch


class TestSketch:
    def test_bound_contains_exact(self, sketch_deployment):
        network, form, sketch = sketch_deployment
        exact_engine = QueryEngine(network, form)
        sketch_engine = QueryEngine(
            network, form, planner="auto", sketch=sketch
        )
        battery = _battery(network.domain, HORIZON, seed=71, n_boxes=30)
        contained = total = 0
        for query in battery:
            exact = exact_engine.execute(query)
            approx = sketch_engine.execute(
                RangeQuery(
                    query.box, query.t1, query.t2, kind=query.kind,
                    bound=query.bound, max_error=float("inf"),
                )
            )
            if exact.missed:
                assert approx.missed
                continue
            total += 1
            assert approx.approximate
            assert approx.degradation is not None
            assert approx.degradation.strategy == "sketch"
            assert approx.nodes_accessed == 0
            if (
                abs(approx.value - exact.value)
                <= approx.degradation.error_bound
            ):
                contained += 1
        assert total > 30
        # Acceptance: bound contains the exact answer in >= 95% of
        # queries.  The bound is worst-case by construction, so this
        # should be 100%.
        assert contained / total >= 0.95

    def test_tight_tolerance_falls_back_exact(self, sketch_deployment):
        network, form, sketch = sketch_deployment
        with use_registry() as registry:
            engine = QueryEngine(
                network, form, planner="auto", sketch=sketch
            )
            battery = _battery(network.domain, HORIZON, seed=73, n_boxes=5)
            exact = QueryEngine(network, form)
            for query in battery:
                tight = RangeQuery(
                    query.box, query.t1, query.t2, kind=query.kind,
                    bound=query.bound, max_error=0.0,
                )
                got = engine.execute(tight)
                want = exact.execute(query)
                if got.degradation is None:
                    assert got.value == want.value
                    assert not got.approximate
            hits = registry.value(
                "repro_sketch_queries_total", outcome="hit"
            )
            fallbacks = registry.value(
                "repro_sketch_queries_total", outcome="fallback"
            )
            assert hits + fallbacks > 0

    def test_no_max_error_means_exact(self, sketch_deployment):
        network, form, sketch = sketch_deployment
        engine = QueryEngine(network, form, planner="auto", sketch=sketch)
        exact = QueryEngine(network, form)
        query = _battery(network.domain, HORIZON, seed=79, n_boxes=1)[0]
        assert engine.execute(query).value == exact.execute(query).value
        assert not engine.execute(query).approximate

    def test_non_auto_planner_ignores_sketch(self, sketch_deployment):
        network, form, sketch = sketch_deployment
        engine = QueryEngine(
            network, form, planner="python", sketch=sketch
        )
        query = _battery(network.domain, HORIZON, seed=83, n_boxes=1)[0]
        loose = RangeQuery(
            query.box, query.t1, query.t2, kind=query.kind,
            bound=query.bound, max_error=float("inf"),
        )
        assert not engine.execute(loose).approximate

    def test_batch_path_serves_sketch(self, sketch_deployment):
        network, form, sketch = sketch_deployment
        engine = QueryEngine(network, form, planner="auto", sketch=sketch)
        base = _battery(network.domain, HORIZON, seed=89, n_boxes=4)
        loose = [
            RangeQuery(
                q.box, q.t1, q.t2, kind=q.kind, bound=q.bound,
                max_error=float("inf"),
            )
            for q in base
        ]
        exact = QueryEngine(network, form)
        got = engine.execute_batch(loose)
        want = exact.execute_batch(base)
        for g, w in zip(got, want):
            assert g.missed == w.missed
            if not g.missed:
                assert g.approximate
                assert abs(g.value - w.value) <= g.degradation.error_bound

    def test_unbounded_start_on_a_chain_with_net_crossings(
        self, sketch_deployment
    ):
        """A tolerant transient query from ``t1 = -inf``: its sketch
        answer stays within its bound of the exact count.  The stores
        hold the first half of the day only, so objects are still
        inside the boxes at its end and chains have a non-zero total
        net (which a wrapped ``-inf`` bin counted before ``t1``)."""
        network, _, _ = sketch_deployment
        _, _, workload = _deployment("organic", 12, seed=37)
        events = [
            e for e in workload.events(network.domain) if e.t < HORIZON / 2
        ]
        columns = EventColumns.from_events(network.domain, events)
        form = network.build_form(columns)
        sketch = EdgeCountSketch.from_columns(
            network.observed_columns(columns), bins=64
        )
        engine = QueryEngine(network, form, planner="auto", sketch=sketch)
        exact = QueryEngine(network, form)
        netted = 0
        for query in _battery(network.domain, HORIZON, seed=97, n_boxes=12):
            for t2 in (query.t2, np.inf):
                want = exact.execute(
                    RangeQuery(
                        query.box, -np.inf, t2, kind=TRANSIENT,
                        bound=query.bound,
                    )
                )
                if want.missed:
                    continue
                got = engine.execute(
                    RangeQuery(
                        query.box, -np.inf, t2, kind=TRANSIENT,
                        bound=query.bound, max_error=float("inf"),
                    )
                )
                assert got.degradation.strategy == "sketch"
                assert abs(got.value - want.value) <= (
                    got.degradation.error_bound
                )
                netted += t2 == np.inf and want.value != 0
        assert netted > 0

    def test_max_error_validation(self):
        from repro.geometry import BBox

        with pytest.raises(Exception):
            RangeQuery(
                BBox(0, 0, 1, 1), 0.0, 1.0, max_error=-1.0
            )


# ----------------------------------------------------------------------
# Unified storage reports
# ----------------------------------------------------------------------
def workload_events(network, columns, n=300):
    """The first ``n`` columnar rows back as crossing events."""
    edge = network.domain.edge_interner.edge
    return [
        CrossingEvent(*edge(int(eid))[:: 1 if d == 0 else -1], t)
        for eid, d, t in zip(
            columns.edge_id[:n], columns.direction[:n], columns.t[:n]
        )
    ]


class TestStorageReports:
    REQUIRED = (
        "store", "events", "total_bytes", "derived_bytes", "components"
    )

    def _check(self, report):
        for key in self.REQUIRED:
            assert key in report
        # Derived (in-memory-only) indexes sit beside the stored
        # format, never inside it.
        assert report["total_bytes"] == sum(
            report["components"].values()
        )
        assert isinstance(report["derived_bytes"], int)
        assert report["derived_bytes"] >= 0
        assert all(
            isinstance(v, int) and v >= 0
            for v in report["components"].values()
        )

    def test_all_stores_share_the_schema(self, forms_pair, full_form):
        network, columns, plain, compressed = forms_pair
        self._check(plain.storage_report())
        self._check(compressed.storage_report())
        assert {"heads", "payload"} <= set(
            compressed.storage_report()["components"]
        )
        self._check(full_form.storage_report())
        streaming = StreamingEventStore(
            network, compact_every=100,
            compress=True, tick_bits=TICK_BITS,
        )
        self._check(streaming.storage_report())
        from repro.models import LinearModel, ModeledCountStore

        modeled = ModeledCountStore.fit(full_form, LinearModel)
        self._check(modeled.storage_report())
        sketch = EdgeCountSketch.from_columns(columns, bins=16)
        self._check(sketch.storage_report())
        # Derived indexes: the joint row offsets and the rank index
        # on the plain form, the per-row unit index and its rank index
        # on the succinct tier, the sketch's rank index over its bins.
        for store in (full_form, modeled):
            assert store.storage_report()["derived_bytes"] == 0

        def index_bytes(index):
            return index.keys.nbytes + index.sorted.nbytes

        assert sketch.storage_report()["derived_bytes"] == index_bytes(
            sketch._index
        ) > 0
        plain_derived = plain.storage_report()["derived_bytes"]
        assert plain_derived == plain._rows.nbytes + index_bytes(plain._index)
        blocks = compressed._blocks
        assert compressed.storage_report()["derived_bytes"] == (
            compressed._rows.nbytes + blocks.directory.nbytes
            + blocks.unit_offsets.nbytes + blocks.unit_len.nbytes
            + blocks.unit_width.nbytes + blocks.bit_starts.nbytes
            + index_bytes(blocks.index)
        )
        streaming.append_events(workload_events(network, columns, 1000))
        assert streaming.block_count >= 1
        report = streaming.storage_report()
        self._check(report)
        assert report["derived_bytes"] == sum(
            block.storage_report()["derived_bytes"]
            for block in streaming._blocks
        ) > 0

    def test_framework_report_sums_derived_bytes(self, organic_domain,
                                                 workload):
        fw = InNetworkFramework(organic_domain)
        fw.deploy(
            FrameworkConfig(
                budget=20, seed=3, compress=True, tick_bits=TICK_BITS,
                sketch_bins=16,
            )
        )
        fw.ingest_trips(workload.trips)
        report = fw.storage_report()
        fw.close()
        assert len(report["stores"]) == 2
        for key in ("total_bytes", "derived_bytes"):
            assert report[key] == sum(r[key] for r in report["stores"])
        assert report["derived_bytes"] > 0

"""Columnar event store + compiled tracking forms + batched evaluation.

Covers the vectorised ingestion substrate end to end:

- :class:`repro.trajectories.EventColumns` construction, time sorting
  and round-tripping;
- :class:`repro.forms.CompiledTrackingForm` ≡
  :class:`repro.forms.TrackingForm` equivalence (unit, property-based
  over random/shuffled event streams, and on the SMALL_CONFIG pipeline
  for the full standard query battery);
- the vectorised ``SensorNetwork.build_form`` wall filter;
- ``QueryEngine.execute_batch`` ≡ ``execute``;
- the construction-tuple form cache in the evaluation pipeline.
"""

from __future__ import annotations

import pickle
import random
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lib.harness import STANDARD_AREA_FRACTIONS, get_pipeline
from repro.errors import QueryError
from repro.evaluation import SMALL_CONFIG
from repro.forms import CompiledTrackingForm, TrackingForm
from repro.planar import EdgeInterner
from repro.query import QueryEngine
from repro.sampling import wall_network
from repro.trajectories import CrossingEvent, EventColumns


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def compile_events(events, interner=None):
    """Build (TrackingForm, CompiledTrackingForm) from one event list."""
    form = TrackingForm()
    for u, v, t in events:
        form.record(u, v, t)
    interner = interner or EdgeInterner()
    ids = np.empty(len(events), dtype=np.int64)
    dirs = np.empty(len(events), dtype=np.int8)
    ts = np.empty(len(events), dtype=np.float64)
    for i, (u, v, t) in enumerate(events):
        eid, forward = interner.intern(u, v)
        ids[i] = eid
        dirs[i] = 0 if forward else 1
        ts[i] = t
    order = np.argsort(ts, kind="stable")
    compiled = CompiledTrackingForm(interner, ids[order], dirs[order], ts[order])
    return form, compiled


NODES = ["a", "b", "c", "d"]
EDGES = [(u, v) for i, u in enumerate(NODES) for v in NODES[i + 1:]]


event_streams = st.lists(
    st.tuples(
        st.sampled_from(EDGES),
        st.booleans(),
        st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
    ),
    max_size=80,
).map(
    lambda raw: [
        ((v, u, t) if flip else (u, v, t)) for (u, v), flip, t in raw
    ]
)


# ----------------------------------------------------------------------
# EventColumns
# ----------------------------------------------------------------------
class TestEventColumns:
    def test_round_trip(self, organic_domain, events):
        columns = EventColumns.from_events(organic_domain, events)
        assert len(columns) == len(events)
        # Stream is already time-sorted; columnarisation preserves it.
        back = columns.to_events()
        assert back == events

    def test_time_sorted(self, organic_domain):
        events = [
            CrossingEvent(*pair)
            for pair in [
                (NODES[0], NODES[1], 5.0),
                (NODES[1], NODES[2], 1.0),
                (NODES[2], NODES[0], 3.0),
            ]
        ]
        columns = EventColumns.from_events(organic_domain, events)
        assert list(columns.t) == [1.0, 3.0, 5.0]

    def test_filter_edges_matches_loop(self, organic_domain, events, sampled_net):
        columns = EventColumns.from_events(organic_domain, events)
        fast = sampled_net.observed_columns(columns)
        slow = sampled_net.observed_events(events)
        # The stream is time-sorted and both filters preserve order.
        assert fast.to_events() == slow

    def test_interner_shared_with_domain(self, organic_domain, events):
        columns = EventColumns.from_events(organic_domain, events)
        assert columns.interner is organic_domain.edge_interner

    def test_concat_is_from_events_of_the_whole(self, organic_domain, events):
        shuffled = random.Random(3).sample(events, len(events))
        cuts = [0, 1, 700, 701, len(events) // 2, len(events)]
        parts = [
            EventColumns.from_events(organic_domain, shuffled[a:b])
            for a, b in zip(cuts, cuts[1:])
        ]
        merged = EventColumns.concat(parts)
        whole = EventColumns.from_events(organic_domain, shuffled)
        assert merged.to_events() == whole.to_events()

    def test_from_events_is_per_event_interning(self, organic_domain, events):
        """The columns of a shuffled window are those of one
        ``interner.intern`` call an event, stably sorted by time."""
        window = random.Random(7).sample(events, len(events))
        columns = EventColumns.from_events(organic_domain, window)
        interner = organic_domain.edge_interner
        interned = [interner.intern(e.tail, e.head) for e in window]
        t = np.array([e.t for e in window])
        order = np.argsort(t, kind="stable")
        assert np.array_equal(
            columns.edge_id, np.array([i for i, _ in interned])[order]
        )
        assert np.array_equal(
            columns.direction, np.array([0 if f else 1 for _, f in interned])[order]
        )
        assert np.array_equal(columns.t, t[order])
        assert columns.edge_id.dtype == np.int32
        assert columns.direction.dtype == np.int8

    @pytest.mark.parametrize("order", ["sorted", "unsorted"])
    def test_from_events_peak_memory(self, organic_domain, events, order):
        """At most 40 bytes an event at the peak (13 are the columns
        kept): two column passes, no per-event tuples or lists.  A
        pass over a materialised list of ``(id, forward)`` pairs is 64
        and more."""
        n = 200_000
        stream = [events[i % len(events)] for i in range(n)]
        if order == "sorted":
            stream.sort(key=lambda e: e.t)
        EventColumns.from_events(organic_domain, events)  # memo warm
        tracemalloc.start()
        try:
            columns = EventColumns.from_events(organic_domain, stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(columns) == n
        assert peak <= 40 * n


class TestCrossingEvent:
    """Events are slotted: no per-event ``__dict__``, and a value
    object as before."""

    def test_slotted_value_object(self):
        event = CrossingEvent(3, 7, 1.5)
        assert not hasattr(event, "__dict__")
        assert event == CrossingEvent(3, 7, 1.5)
        assert event != CrossingEvent(7, 3, 1.5)
        assert hash(event) == hash(CrossingEvent(3, 7, 1.5))
        assert len({event, CrossingEvent(3, 7, 1.5)}) == 1
        assert pickle.loads(pickle.dumps(event)) == event
        moved = replace(event, t=2.0)
        assert moved == CrossingEvent(3, 7, 2.0) and event.t == 1.5
        with pytest.raises(FrozenInstanceError):
            event.t = 2.0


# ----------------------------------------------------------------------
# CompiledTrackingForm ≡ TrackingForm
# ----------------------------------------------------------------------
class TestCompiledEquivalence:
    def test_figure_10_scenario(self):
        events = [
            ("b_out", "sigma", 0.0),
            ("a_out", "sigma", 1.0),
            ("b_out", "sigma", 2.0),
            ("sigma", "c_out", 3.0),
        ]
        form, compiled = compile_events(events)
        boundary = [("a_out", "sigma"), ("b_out", "sigma"), ("c_out", "sigma")]
        for t in (-0.5, 0.0, 1.0, 1.5, 2.0, 3.0, 10.0):
            assert compiled.integrate_until(boundary, t) == form.integrate_until(
                boundary, t
            )
        assert compiled.integrate_until(boundary, 3.0) == 2
        assert compiled.integrate_between(boundary, 1.0, 3.0) == 0
        assert compiled.count_entering(("b_out", "sigma"), 2.0) == 2

    def test_inverted_interval_raises(self):
        _, compiled = compile_events([("a", "b", 1.0)])
        with pytest.raises(QueryError):
            compiled.net_between(("a", "b"), 5.0, 1.0)
        with pytest.raises(QueryError):
            compiled.integrate_between([("a", "b")], 5.0, 1.0)

    def test_unknown_edge_counts_zero(self):
        _, compiled = compile_events([("a", "b", 1.0)])
        assert compiled.count_entering(("x", "y"), 10.0) == 0
        assert compiled.net_until(("x", "y"), 10.0) == 0
        assert compiled.integrate_until([("x", "y")], 10.0) == 0

    @settings(max_examples=60, deadline=None)
    @given(stream=event_streams, seed=st.integers(0, 2**16))
    def test_property_equivalence_under_shuffle(self, stream, seed):
        """Compiled ≡ loop-built counts for random, shuffled streams."""
        shuffled = list(stream)
        random.Random(seed).shuffle(shuffled)
        form, compiled = compile_events(shuffled)

        probes = sorted({t for _, _, t in stream} | {0.0, 5e5, 2e6})
        directed = [(u, v) for u, v in EDGES] + [(v, u) for u, v in EDGES]
        for edge in directed:
            for t in probes:
                assert compiled.count_entering(edge, t) == form.count_entering(
                    edge, t
                )
        for t in probes:
            assert compiled.integrate_until(directed, t) == form.integrate_until(
                directed, t
            )
        for t1, t2 in zip(probes, probes[1:]):
            assert compiled.integrate_between(
                directed, t1, t2
            ) == form.integrate_between(directed, t1, t2)

    @settings(max_examples=25, deadline=None)
    @given(stream=event_streams)
    def test_property_storage_accounting(self, stream):
        form, compiled = compile_events(stream)
        assert compiled.total_events == form.total_events
        assert compiled.storage_profile() == [
            c for c in form.storage_profile() if c
        ]
        for edge in form.edges():
            plus, minus = form.timestamps(edge)
            cplus, cminus = compiled.timestamps(edge)
            assert sorted(plus) == cplus
            assert sorted(minus) == cminus
            assert compiled.event_count(edge) == form.event_count(edge)


# ----------------------------------------------------------------------
# Vectorised network ingestion
# ----------------------------------------------------------------------
class TestVectorisedBuildForm:
    def test_columnar_matches_loop(self, organic_domain, events, sampled_net):
        columns = EventColumns.from_events(organic_domain, events)
        loop_form = sampled_net.build_form_loop(events)
        compiled = sampled_net.build_form(columns)
        assert isinstance(compiled, CompiledTrackingForm)
        assert compiled.total_events == loop_form.total_events
        region = sampled_net.region_ids[0]
        chain = sampled_net.region_boundary([region])
        for t in (0.0, 3600.0, 43200.0, 86400.0):
            assert compiled.integrate_until(chain, t) == loop_form.integrate_until(
                chain, t
            )

    def test_list_input_keeps_legacy_path(self, sampled_net, events):
        form = sampled_net.build_form(events)
        assert isinstance(form, TrackingForm)


# ----------------------------------------------------------------------
# Batched query evaluation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_pipeline():
    return get_pipeline(SMALL_CONFIG)


def standard_battery(p):
    """The full standard battery: every fraction × kind × bound."""
    queries = []
    for fraction in STANDARD_AREA_FRACTIONS:
        base = p.standard_queries(fraction, n=4)
        for query in base:
            for kind in ("static", "transient"):
                for bound in ("lower", "upper"):
                    queries.append(replace(query, kind=kind, bound=bound))
    return queries


class TestExecuteBatch:
    def test_batch_matches_sequential(self, small_pipeline):
        p = small_pipeline
        network = p.network("quadtree", p.budget_for_fraction(0.3), seed=1)
        engine = p.engine(network)
        queries = standard_battery(p)
        sequential = engine.execute_many(queries)
        batched = engine.execute_batch(queries)
        assert len(batched) == len(sequential)
        for a, b in zip(sequential, batched):
            assert a.missed == b.missed
            assert a.value == b.value
            assert a.edges_accessed == b.edges_accessed
            assert a.nodes_accessed == b.nodes_accessed
            assert tuple(sorted(a.regions)) == tuple(sorted(b.regions))

    def test_compiled_counts_bit_identical_to_tracking_form(
        self, small_pipeline
    ):
        """Acceptance: CompiledTrackingForm ≡ TrackingForm on the
        SMALL_CONFIG pipeline over the full standard query battery
        (static + transient, lower + upper)."""
        p = small_pipeline
        network = p.network("quadtree", p.budget_for_fraction(0.3), seed=1)
        compiled = network.build_form(p.event_columns)
        loop_form = network.build_form_loop(p.events)
        assert isinstance(compiled, CompiledTrackingForm)

        queries = standard_battery(p)
        compiled_results = QueryEngine(network, compiled).execute_batch(queries)
        loop_results = QueryEngine(network, loop_form).execute_many(queries)
        answered = 0
        for a, b in zip(loop_results, compiled_results):
            assert a.missed == b.missed
            if not a.missed:
                assert a.value == b.value
                answered += 1
        assert answered > 0

    def test_full_network_exact_counts_identical(self, small_pipeline):
        p = small_pipeline
        compiled = p.full.build_form(p.event_columns)
        loop_form = p.full.build_form_loop(p.events)
        queries = standard_battery(p)[:40]
        a = QueryEngine(p.full, compiled, access_mode="flood").execute_batch(
            queries
        )
        b = QueryEngine(p.full, loop_form, access_mode="flood").execute_many(
            queries
        )
        assert [r.value for r in a] == [r.value for r in b]
        assert [r.missed for r in a] == [r.missed for r in b]


# ----------------------------------------------------------------------
# Pipeline form cache
# ----------------------------------------------------------------------
class TestFormCache:
    def test_keyed_on_construction_tuple(self, small_pipeline, organic_domain):
        p = small_pipeline
        network = p.network("quadtree", p.budget_for_fraction(0.3), seed=1)
        form = p.form(network)
        # A second network with identical construction shares the entry.
        clone = wall_network(
            p.domain, network.walls, network.sensors, name=network.name
        )
        assert p.form(clone) is form

    def test_distinct_networks_do_not_alias(self, small_pipeline):
        p = small_pipeline
        m = p.budget_for_fraction(0.3)
        n1 = p.network("quadtree", m, seed=1)
        n2 = p.network("uniform", m, seed=1)
        assert p.form(n1) is not p.form(n2)

    def test_key_is_not_id_based(self, small_pipeline):
        p = small_pipeline
        network = p.network("quadtree", p.budget_for_fraction(0.3), seed=1)
        key = p.form_key(network)
        assert not any(
            isinstance(part, int) and part == id(network) for part in key
        )

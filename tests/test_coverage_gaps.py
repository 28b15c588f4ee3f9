"""Tests for remaining behavioural corners across modules.

Failure injection, protocol conformance, alternative city kinds in the
harness, and accounting edge cases.
"""

import numpy as np
import pytest

from repro.errors import QueryError
from lib.harness import get_pipeline
from repro.evaluation import PipelineConfig
from repro.forms import EdgeCountStore, TrackingForm
from repro.geometry import BBox
from repro.models import LinearModel, ModeledCountStore
from repro.query import QueryEngine, RangeQuery


class TestProtocolConformance:
    def test_tracking_form_is_edge_count_store(self):
        assert isinstance(TrackingForm(), EdgeCountStore)

    def test_modeled_store_is_edge_count_store(self):
        form = TrackingForm()
        form.record("a", "b", 1.0)
        store = ModeledCountStore.fit(form, LinearModel)
        assert isinstance(store, EdgeCountStore)

    def test_buffered_store_is_edge_count_store(self):
        from repro.models import BufferedEdgeStore

        assert isinstance(BufferedEdgeStore(LinearModel), EdgeCountStore)


class TestFailureInjection:
    def test_form_accepts_unknown_edges(self):
        """Forms are schema-free: a crossing on a never-seen edge is
        recorded rather than rejected (sensors don't know the graph)."""
        form = TrackingForm()
        form.record("mystery-1", "mystery-2", 5.0)
        assert form.count_entering(("mystery-1", "mystery-2"), 10.0) == 1

    def test_build_form_empty_events(self, sampled_net):
        form = sampled_net.build_form([])
        assert form.total_events == 0

    def test_engine_on_empty_form(self, sampled_net, workload):
        engine = QueryEngine(sampled_net, TrackingForm())
        result = engine.execute(
            RangeQuery(BBox(1.5, 1.5, 8.5, 8.5), 0, workload.horizon)
        )
        if not result.missed:
            assert result.value == 0

    def test_flood_access_on_sampled_network(
        self, sampled_net, sampled_form, workload
    ):
        engine = QueryEngine(sampled_net, sampled_form, access_mode="flood")
        result = engine.execute(
            RangeQuery(BBox(1.5, 1.5, 8.5, 8.5), 0, workload.horizon / 2)
        )
        if not result.missed:
            perimeter = QueryEngine(sampled_net, sampled_form).execute(
                RangeQuery(BBox(1.5, 1.5, 8.5, 8.5), 0, workload.horizon / 2)
            )
            assert result.nodes_accessed >= perimeter.nodes_accessed

    def test_region_junctions_of_missed_result(
        self, sampled_net, sampled_form
    ):
        engine = QueryEngine(sampled_net, sampled_form)
        result = engine.execute(RangeQuery(BBox(0.0, 0.0, 0.05, 0.05), 0, 1))
        assert result.missed
        assert engine.region_junctions(result) == set()

    def test_resolve_junctions(self, sampled_net, sampled_form):
        engine = QueryEngine(sampled_net, sampled_form)
        box = BBox(2, 2, 8, 8)
        assert engine.resolve_junctions(
            RangeQuery(box, 0, 1)
        ) == engine.domain.junctions_in_bbox(box)


class TestAlternativeCities:
    @pytest.mark.parametrize("city", ["grid", "radial"])
    def test_pipeline_builds_on_other_city_kinds(self, city):
        config = PipelineConfig(
            city=city, blocks=60, n_trips=300, history_per_fraction=3
        )
        pipeline = get_pipeline(config)
        assert pipeline.domain.block_count > 10
        queries = pipeline.standard_queries(0.1728, n=3)
        network = pipeline.network("uniform", 10, seed=0)
        engine = pipeline.engine(network)
        for query in queries:
            engine.execute(query)  # must not raise

    def test_unknown_city_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            PipelineConfig(city="atlantis")


class TestSubmodularDeterminism:
    def test_plan_deterministic(self, grid_domain):
        from repro.selection import SubmodularSelector

        history = [
            grid_domain.junctions_in_bbox(BBox(0, 0, 5, 5)),
            grid_domain.junctions_in_bbox(BBox(4, 4, 10, 10)),
        ]
        first = SubmodularSelector(grid_domain, history).plan(200, "edges")
        second = SubmodularSelector(grid_domain, history).plan(200, "edges")
        assert first.walls == second.walls
        assert first.sensors == second.sensors

    def test_greedy_prefers_shared_atoms(self, grid_domain):
        """Fig. 5's insight: an overlap atom that serves both queries
        has the best utility per unit cost and is picked first (when
        the overlap is wide enough that its boundary is not the
        dominant cost)."""
        from repro.selection import SubmodularSelector

        r1 = grid_domain.junctions_in_bbox(BBox(0, 0, 7.2, 10))
        r2 = grid_domain.junctions_in_bbox(BBox(2.8, 0, 10, 10))
        selector = SubmodularSelector(grid_domain, [r1, r2])
        plan = selector.plan(10_000, budget_unit="edges")
        signatures = [tuple(sorted(a.queries)) for a in plan.atoms]
        assert signatures[0] == (0, 1)
        # ... and with enough budget both full queries are answerable.
        assert set(signatures) == {(0,), (1,), (0, 1)}


class TestTablesAndSeries:
    def test_summary_str_formats(self):
        from lib.harness import Summary

        summary = Summary.of([0.1, 0.2, 0.3])
        text = str(summary)
        assert "0.2" in text
        assert "[" in text


class TestTripEventConservation:
    def test_every_trip_nets_zero_after_exit(
        self, organic_domain, workload
    ):
        """After an object leaves, every region's contribution is 0:
        total entries equal total exits on each trip's event stream."""
        from collections import Counter

        from repro.trajectories import trip_events

        for trip in workload.trips[:20]:
            balance = Counter()
            for event in trip_events(organic_domain, trip):
                balance[event.head] += 1
                balance[event.tail] -= 1
            # Every junction nets zero; EXT nets zero too (out and back).
            assert all(v == 0 for v in balance.values())

"""Integration tests: the full pipeline against trajectory ground truth.

These check the system-level claims of the paper end to end on a
fresh (non-fixture) domain:

1. The unsampled framework answers exactly (no double counting).
2. Sampled frameworks bound the truth from below/above via their
   region approximations and are exact on the regions they cover.
3. Learned stores trade a small error for constant storage.
4. Communication accounting behaves as Fig. 11c describes.
"""

import numpy as np
import pytest

from lib.harness import FIXED_QUERY_AREA, evaluate, get_pipeline
from repro.evaluation import SMALL_CONFIG
from repro.models import ModeledCountStore, PiecewiseLinearModel
from repro.query import QueryEngine, RangeQuery, TRANSIENT, UPPER
from repro.trajectories import net_change, occupancy_count


@pytest.fixture(scope="module")
def pipeline():
    return get_pipeline(SMALL_CONFIG)


class TestExactness:
    def test_full_network_exact_static(self, pipeline):
        queries = pipeline.standard_queries(FIXED_QUERY_AREA, n=10)
        for query in queries:
            result = pipeline.exact(query)
            region = pipeline.domain.junctions_in_bbox(query.box)
            truth = occupancy_count(
                pipeline.workload.trips, region, query.t2
            )
            assert result.value == truth

    def test_full_network_exact_transient(self, pipeline):
        queries = pipeline.standard_queries(
            FIXED_QUERY_AREA, kind=TRANSIENT, n=10
        )
        engine = pipeline.exact_engine
        for query in queries:
            result = engine.execute(query)
            region = pipeline.domain.junctions_in_bbox(query.box)
            truth = net_change(
                pipeline.workload.trips, region, query.t1, query.t2
            )
            assert result.value == truth


class TestBounds:
    def test_lower_upper_bracket_exact(self, pipeline):
        network = pipeline.network("quadtree", 20, seed=2)
        engine = pipeline.engine(network)
        queries = pipeline.standard_queries(0.1728, n=10)
        bracketed = 0
        for query in queries:
            lower = engine.execute(query)
            upper = engine.execute(query.with_bound(UPPER))
            exact = pipeline.exact(query)
            if lower.missed or upper.missed:
                continue
            assert lower.value <= exact.value + 1e-9
            assert upper.value >= exact.value - 1e-9
            bracketed += 1
        assert bracketed > 0

    def test_sampled_value_exact_on_covered_junctions(self, pipeline):
        network = pipeline.network("kdtree", 16, seed=3)
        engine = pipeline.engine(network)
        for query in pipeline.standard_queries(0.1728, n=6):
            result = engine.execute(query)
            if result.missed:
                continue
            covered = engine.region_junctions(result)
            truth = occupancy_count(
                pipeline.workload.trips, covered, query.t2
            )
            assert result.value == truth


class TestErrorDecreasesWithSize:
    def test_error_monotone_in_budget(self, pipeline):
        queries = pipeline.standard_queries(0.1728, n=12)
        reports = []
        for fraction in (0.15, 0.6):
            m = pipeline.budget_for_fraction(fraction)
            network = pipeline.network("quadtree", m, seed=1)
            reports.append(
                evaluate(pipeline, pipeline.engine(network).execute, queries)
            )
        small, large = reports
        if small.error.count and large.error.count:
            assert large.error.median <= small.error.median + 0.05
        else:
            # Too coarse to answer at the small budget: miss rate must
            # at least improve with the larger budget.
            assert large.miss_rate <= small.miss_rate


class TestLearnedStoreIntegration:
    def test_modeled_store_small_extra_error(self, pipeline):
        network = pipeline.network("quadtree", 20, seed=2)
        exact_form = pipeline.form(network)
        store = ModeledCountStore.fit(exact_form, PiecewiseLinearModel)
        exact_engine = QueryEngine(network, exact_form)
        model_engine = QueryEngine(network, store)
        deltas = []
        for query in pipeline.standard_queries(0.1728, n=8):
            exact = exact_engine.execute(query)
            approx = model_engine.execute(query)
            if exact.missed or exact.value == 0:
                continue
            deltas.append(
                abs(approx.value - exact.value) / abs(exact.value)
            )
        if deltas:
            assert np.median(deltas) < 0.5

    def test_storage_reduction_ratio(self, pipeline):
        network = pipeline.network("quadtree", 20, seed=2)
        form = pipeline.form(network)
        store = ModeledCountStore.fit(form, PiecewiseLinearModel)
        exact_bytes = form.total_events * 8
        if exact_bytes > store.storage_bytes:
            reduction = 1 - store.storage_bytes / exact_bytes
            assert reduction > 0.0


class TestCommunicationShape:
    def test_flood_grows_with_area_perimeter_flat(self, pipeline):
        network = pipeline.network("quadtree", 24, seed=4)
        engine = pipeline.engine(network)
        flood_nodes, perimeter_nodes = [], []
        for fraction in (0.0432, 0.1728, 0.3456):
            queries = pipeline.standard_queries(fraction, n=6)
            flood, perim = [], []
            for query in queries:
                exact = pipeline.exact(query)
                approx = engine.execute(query)
                flood.append(exact.nodes_accessed)
                if not approx.missed:
                    perim.append(approx.nodes_accessed)
            flood_nodes.append(np.mean(flood))
            if perim:
                perimeter_nodes.append(np.mean(perim))
        # Flooding scales strongly with area...
        assert flood_nodes[-1] > 2.5 * flood_nodes[0]
        # ...while the perimeter protocol grows sublinearly.
        if len(perimeter_nodes) >= 2:
            flood_growth = flood_nodes[-1] / flood_nodes[0]
            perimeter_growth = perimeter_nodes[-1] / perimeter_nodes[0]
            assert perimeter_growth < flood_growth

    def test_misses_drop_with_budget(self, pipeline):
        queries = pipeline.standard_queries(0.0864, n=12)
        rates = []
        for fraction in (0.03, 0.4):
            m = pipeline.budget_for_fraction(fraction)
            network = pipeline.network("uniform", m, seed=6)
            report = evaluate(pipeline, pipeline.engine(network).execute, queries)
            rates.append(report.miss_rate)
        assert rates[-1] <= rates[0]

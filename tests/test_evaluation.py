"""Unit tests for metrics, query workloads and the experiment harness."""

import numpy as np
import pytest

from lib.harness import (
    STANDARD_AREA_FRACTIONS,
    Summary,
    evaluate,
    get_pipeline,
    queries_to_regions,
    ratio,
)
from lib.tables import format_table
from repro.errors import WorkloadError
from repro.evaluation import (
    QueryWorkloadConfig,
    SMALL_CONFIG,
    generate_queries,
    relative_error,
)
from repro.query import TRANSIENT, UPPER


class TestMetrics:
    def test_relative_error(self):
        assert relative_error(10, 8) == pytest.approx(0.2)
        assert relative_error(10, 12) == pytest.approx(0.2)

    def test_relative_error_zero_actual(self):
        assert relative_error(0, 5) is None

    def test_ratio(self):
        assert ratio(10, 15) == pytest.approx(1.5)
        assert ratio(0, 5) is None

    def test_summary_percentiles(self):
        summary = Summary.of([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.median == 3.0
        assert summary.p25 == 2.0
        assert summary.p75 == 4.0
        assert summary.count == 5

    def test_summary_empty(self):
        summary = Summary.of([])
        assert summary.count == 0
        assert str(summary) == "n/a"

    def test_format_table(self):
        table = format_table(["a", "b"], [[1, 2.5], ["x", float("nan")]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "n/a" in lines[3]


class TestQueryWorkload:
    def test_config_validation(self):
        with pytest.raises(WorkloadError):
            QueryWorkloadConfig(n_queries=0)
        with pytest.raises(WorkloadError):
            QueryWorkloadConfig(area_fraction=0.0)
        with pytest.raises(WorkloadError):
            QueryWorkloadConfig(window_fraction=2.0)
        with pytest.raises(WorkloadError):
            QueryWorkloadConfig(aspect_low=2.0, aspect_high=1.0)

    def test_generated_queries_nonempty_regions(self, organic_domain):
        queries = generate_queries(
            organic_domain, 1000.0,
            QueryWorkloadConfig(n_queries=15, area_fraction=0.02, seed=1),
        )
        assert len(queries) == 15
        for query in queries:
            assert organic_domain.junctions_in_bbox(query.box)

    def test_area_respected(self, organic_domain):
        bounds = organic_domain.bounds
        queries = generate_queries(
            organic_domain, 1000.0,
            QueryWorkloadConfig(n_queries=10, area_fraction=0.05, seed=2),
        )
        for query in queries:
            assert query.box.area == pytest.approx(
                0.05 * bounds.area, rel=0.01
            )

    def test_temporal_window_length(self, organic_domain):
        horizon = 10_000.0
        queries = generate_queries(
            organic_domain, horizon,
            QueryWorkloadConfig(
                n_queries=5, area_fraction=0.05,
                window_fraction=0.25, seed=3,
            ),
        )
        for query in queries:
            assert query.t2 - query.t1 == pytest.approx(0.25 * horizon)
            assert 0 <= query.t1 <= query.t2 <= horizon

    def test_reproducible(self, organic_domain):
        config = QueryWorkloadConfig(n_queries=8, area_fraction=0.03, seed=4)
        first = generate_queries(organic_domain, 100.0, config)
        second = generate_queries(organic_domain, 100.0, config)
        assert first == second

    def test_queries_to_regions(self, organic_domain):
        queries = generate_queries(
            organic_domain, 100.0,
            QueryWorkloadConfig(n_queries=5, area_fraction=0.05, seed=5),
        )
        regions = queries_to_regions(organic_domain, queries)
        assert len(regions) == 5
        assert all(regions)


class TestHarness:
    @pytest.fixture(scope="class")
    def pipeline(self):
        return get_pipeline(SMALL_CONFIG)

    def test_pipeline_memoised(self, pipeline):
        assert get_pipeline(SMALL_CONFIG) is pipeline

    def test_history_regions_built(self, pipeline):
        expected = len(STANDARD_AREA_FRACTIONS) * SMALL_CONFIG.history_per_fraction
        assert len(pipeline.history_regions) == expected

    def test_budget_for_fraction(self, pipeline):
        assert pipeline.budget_for_fraction(0.1) == max(
            int(round(0.1 * pipeline.domain.block_count)), 2
        )

    def test_network_cached(self, pipeline):
        first = pipeline.network("uniform", 8, seed=0)
        second = pipeline.network("uniform", 8, seed=0)
        assert first is second

    def test_different_seed_different_network(self, pipeline):
        a = pipeline.network("uniform", 8, seed=0)
        b = pipeline.network("uniform", 8, seed=1)
        assert a is not b

    def test_standard_queries_prefix_stability(self, pipeline):
        short = pipeline.standard_queries(0.0864, n=3)
        long = pipeline.standard_queries(0.0864, n=5)
        assert long[:3] == short

    def test_standard_queries_kind_does_not_change_geometry(self, pipeline):
        static = pipeline.standard_queries(0.0864, n=3)
        transient = pipeline.standard_queries(0.0864, kind=TRANSIENT, n=3)
        assert [q.box for q in static] == [q.box for q in transient]

    def test_exact_cached(self, pipeline):
        query = pipeline.standard_queries(0.0864, n=1)[0]
        first = pipeline.exact(query)
        second = pipeline.exact(query)
        assert first is second

    def test_exact_ignores_bound(self, pipeline):
        query = pipeline.standard_queries(0.0864, n=1)[0]
        assert (
            pipeline.exact(query).value
            == pipeline.exact(query.with_bound(UPPER)).value
        )

    def test_evaluate_report_fields(self, pipeline):
        queries = pipeline.standard_queries(0.1728, n=5)
        network = pipeline.network("quadtree", 12, seed=0)
        engine = pipeline.engine(network)
        report = evaluate(pipeline, engine.execute, queries, label="test")
        assert report.n_queries == 5
        assert 0.0 <= report.miss_rate <= 1.0
        assert report.label == "test"

    def test_selector_registry(self, pipeline):
        for name in ("uniform", "systematic", "stratified",
                     "kdtree", "quadtree", "submodular"):
            assert pipeline.selector(name) is not None

    def test_unknown_selector(self, pipeline):
        from repro.errors import SelectionError

        with pytest.raises(SelectionError):
            pipeline.selector("psychic")

    def test_baseline_cached_and_ingested(self, pipeline):
        baseline = pipeline.baseline(10, seed=0)
        assert pipeline.baseline(10, seed=0) is baseline
        query = pipeline.standard_queries(0.1728, n=1)[0]
        result = baseline.execute(query)  # would raise if not ingested
        assert result is not None

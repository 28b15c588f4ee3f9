"""Shape-regression tests: miniature versions of the paper's figures.

Each test re-derives one qualitative claim of §5 on the small pipeline
so the reproduction's conclusions are guarded by CI, not only by the
full benchmarks.  Thresholds are deliberately loose — they encode
orderings and monotonicity, not absolute numbers.
"""

import numpy as np
import pytest

from lib.harness import evaluate, get_pipeline
from repro.evaluation import SMALL_CONFIG
from repro.query import UPPER


@pytest.fixture(scope="module")
def p():
    return get_pipeline(SMALL_CONFIG)


@pytest.fixture(scope="module")
def queries(p):
    return p.standard_queries(0.1728, n=12)


def _median_error(p, network, queries):
    report = evaluate(p, p.engine(network).execute, queries)
    return report.error.median if report.error.count else float("nan")


class TestFig12aShape:
    def test_error_decreases_with_graph_size(self, p, queries):
        errors = []
        for fraction in (0.1, 0.3, 0.6):
            m = p.budget_for_fraction(fraction)
            errors.append(_median_error(p, p.network("quadtree", m, seed=2), queries))
        valid = [e for e in errors if e == e]
        assert len(valid) >= 2
        assert valid[-1] <= valid[0] + 0.05

    def test_submodular_beats_uniform_on_history(self, p, queries):
        m = p.budget_for_fraction(0.3)
        submodular = _median_error(p, p.network("submodular", m), queries)
        uniform = _median_error(p, p.network("uniform", m, seed=2), queries)
        if submodular == submodular and uniform == uniform:
            assert submodular <= uniform + 0.1


class TestFig13Shape:
    def test_miss_rate_decreases_with_size(self, p, queries):
        rates = []
        for fraction in (0.05, 0.5):
            m = p.budget_for_fraction(fraction)
            report = evaluate(
                p, p.engine(p.network("uniform", m, seed=3)).execute, queries
            )
            rates.append(report.miss_rate)
        assert rates[1] <= rates[0]

    def test_upper_bound_ratio_at_least_one(self, p, queries):
        m = p.budget_for_fraction(0.4)
        engine = p.engine(p.network("quadtree", m, seed=2))
        upper_queries = [q.with_bound(UPPER) for q in queries]
        report = evaluate(p, engine.execute, upper_queries)
        if report.ratio.count:
            assert report.ratio.median >= 1.0 - 1e-9


class TestFig14Shape:
    def test_knn_error_no_worse_with_larger_k(self, p, queries):
        m = p.budget_for_fraction(0.25)
        small_k = _median_error(
            p, p.network("quadtree", m, seed=2, connectivity="knn", k=2),
            queries,
        )
        large_k = _median_error(
            p, p.network("quadtree", m, seed=2, connectivity="knn", k=8),
            queries,
        )
        if small_k == small_k and large_k == large_k:
            assert large_k <= small_k + 0.15

    def test_model_overhead_bounded(self, p, queries):
        from repro.models import ModeledCountStore, PeriodicModel
        from repro.query import QueryEngine

        m = p.budget_for_fraction(0.3)
        network = p.network("quadtree", m, seed=2)
        form = p.form(network)
        store = ModeledCountStore.fit(form, PeriodicModel)
        exact_engine = QueryEngine(network, form)
        model_engine = QueryEngine(network, store)
        deltas = []
        for query in queries:
            exact = exact_engine.execute(query)
            approx = model_engine.execute(query)
            if exact.missed or not exact.value:
                continue
            deltas.append(abs(approx.value - exact.value) / abs(exact.value))
        if deltas:
            assert np.median(deltas) < 1.0


class TestFig11cdShape:
    def test_perimeter_access_below_flood(self, p, queries):
        m = p.budget_for_fraction(0.25)
        engine = p.engine(p.network("quadtree", m, seed=2))
        sampled = evaluate(p, engine.execute, queries)
        if sampled.nodes_accessed.count:
            assert (
                sampled.nodes_accessed.mean < sampled.exact_nodes.mean
            )

    def test_sampled_queries_faster(self, p, queries):
        """Fig. 11d's speedup by its mechanism, not by the clock: over
        the answered queries the sampled engine integrates fewer
        boundary walls and contacts fewer sensors than the exact one.
        Timing the two is no test: a warmed query is one cached
        ``searchsorted`` on either side."""
        m = p.budget_for_fraction(0.25)
        sampled = p.engine(p.network("quadtree", m, seed=2))
        results = [(q, sampled.execute(q)) for q in queries]
        answered = [(r, p.exact_engine.execute(q))
                    for q, r in results if not r.missed]
        assert answered
        for work in ("boundary_length", "nodes_accessed"):
            ours = sum(getattr(r, work) for r, _ in answered)
            exact = sum(getattr(e, work) for _, e in answered)
            assert ours < exact, work


class TestStorageShape:
    def test_learned_store_smaller_than_exact(self, p):
        from repro.models import LinearModel, ModeledCountStore

        m = p.budget_for_fraction(0.3)
        network = p.network("quadtree", m, seed=2)
        form = p.form(network)
        store = ModeledCountStore.fit(form, LinearModel)
        assert store.storage_bytes < form.total_events * 8

    def test_baseline_plateaus_above_framework(self, p, queries):
        """§5.2's closing claim at the largest size we test."""
        fraction = 0.6
        m = p.budget_for_fraction(fraction)
        framework = _median_error(p, p.network("kdtree", m, seed=2), queries)
        report = evaluate(
            p, p.baseline_for_fraction(fraction, seed=2).execute, queries
        )
        baseline = report.error.median if report.error.count else float("nan")
        if framework == framework and baseline == baseline:
            assert framework <= baseline + 0.15

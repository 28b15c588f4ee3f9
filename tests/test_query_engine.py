"""Unit tests for RangeQuery, QueryResult and QueryEngine."""

import math

import numpy as np
import pytest

from repro.errors import GeometryError, QueryError
from repro.geometry import BBox
from repro.query import (
    LOWER,
    QueryEngine,
    QueryResult,
    RangeQuery,
    STATIC,
    TRANSIENT,
    UPPER,
)
from repro.trajectories import net_change, occupancy_count


class TestRangeQuery:
    def test_inverted_interval_rejected(self):
        with pytest.raises(QueryError):
            RangeQuery(BBox(0, 0, 1, 1), 10.0, 5.0)

    @pytest.mark.parametrize(
        "t1, t2, max_error",
        [(math.nan, 5.0, None), (0.0, math.nan, None), (0.0, 5.0, math.nan)],
    )
    def test_nan_rejected(self, t1, t2, max_error):
        with pytest.raises(QueryError):
            RangeQuery(BBox(0, 0, 1, 1), t1, t2, max_error=max_error)

    def test_nan_box_rejected(self, sampled_net, sampled_form):
        """A NaN corner fails at the box, before any engine sees it;
        it used to plan as an empty region and answer as a silent
        miss."""
        engine = QueryEngine(sampled_net, sampled_form)
        for corner in range(4):
            coords = [0.0, 0.0, 10.0, 10.0]
            coords[corner] = math.nan
            with pytest.raises(GeometryError, match="NaN"):
                engine.execute(RangeQuery(BBox(*coords), 0.0, 1.0))

    def test_infinite_times_accepted(self):
        query = RangeQuery(BBox(0, 0, 1, 1), -math.inf, math.inf)
        assert query.t2 == math.inf

    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError):
            RangeQuery(BBox(0, 0, 1, 1), 0, 1, kind="weird")

    def test_unknown_bound_rejected(self):
        with pytest.raises(QueryError):
            RangeQuery(BBox(0, 0, 1, 1), 0, 1, bound="middle")

    def test_with_bound(self):
        query = RangeQuery(BBox(0, 0, 1, 1), 0, 1)
        assert query.with_bound(UPPER).bound == UPPER
        assert query.bound == LOWER  # original unchanged

    def test_hashable(self):
        q1 = RangeQuery(BBox(0, 0, 1, 1), 0, 1)
        q2 = RangeQuery(BBox(0, 0, 1, 1), 0, 1)
        assert hash(q1) == hash(q2)
        assert q1 == q2


class TestQueryResult:
    def test_missed_with_value_rejected(self):
        query = RangeQuery(BBox(0, 0, 1, 1), 0, 1)
        with pytest.raises(QueryError):
            QueryResult(query=query, value=3.0, missed=True)


class TestQueryEngineValidation:
    def test_bad_access_mode(self, full_net, full_form):
        with pytest.raises(QueryError):
            QueryEngine(full_net, full_form, access_mode="teleport")

    def test_bad_static_eval(self, full_net, full_form):
        with pytest.raises(QueryError):
            QueryEngine(full_net, full_form, static_eval="median")


class TestFullNetworkQueries:
    """On the unsampled graph every query is answered exactly."""

    @pytest.fixture()
    def engine(self, full_net, full_form):
        return QueryEngine(full_net, full_form)

    def test_static_matches_ground_truth(
        self, engine, organic_domain, workload
    ):
        rng = np.random.default_rng(1)
        for _ in range(10):
            cx, cy = rng.uniform(2, 8, 2)
            box = BBox.from_center((cx, cy), 3.0, 3.0)
            t2 = float(rng.uniform(0.1, 0.9) * workload.horizon)
            query = RangeQuery(box, t2 * 0.5, t2, kind=STATIC)
            result = engine.execute(query)
            region = organic_domain.junctions_in_bbox(box)
            if result.missed:
                assert not region
                continue
            assert result.value == occupancy_count(
                workload.trips, region, t2
            )

    def test_transient_matches_ground_truth(
        self, engine, organic_domain, workload
    ):
        rng = np.random.default_rng(2)
        for _ in range(10):
            cx, cy = rng.uniform(2, 8, 2)
            box = BBox.from_center((cx, cy), 3.0, 3.0)
            t1, t2 = sorted(rng.uniform(0.1, 0.9, 2) * workload.horizon)
            query = RangeQuery(box, t1, t2, kind=TRANSIENT)
            result = engine.execute(query)
            region = organic_domain.junctions_in_bbox(box)
            if result.missed:
                continue
            assert result.value == net_change(workload.trips, region, t1, t2)

    def test_empty_box_misses(self, engine):
        query = RangeQuery(BBox(0.01, 0.01, 0.02, 0.02), 0, 1)
        result = engine.execute(query)
        assert result.missed
        assert result.value == 0.0

    def test_static_eval_modes(self, full_net, full_form, workload):
        box = BBox(2, 2, 8, 8)
        t1, t2 = 0.3 * workload.horizon, 0.6 * workload.horizon
        query = RangeQuery(box, t1, t2)
        end = QueryEngine(full_net, full_form, static_eval="end").execute(query)
        start = QueryEngine(full_net, full_form, static_eval="start").execute(query)
        low = QueryEngine(full_net, full_form, static_eval="min").execute(query)
        assert low.value <= max(end.value, start.value)
        assert low.value == min(end.value, start.value)

    def test_execute_many(self, engine, workload):
        queries = [
            RangeQuery(BBox(2, 2, 7, 7), 0, 0.5 * workload.horizon),
            RangeQuery(BBox(3, 3, 8, 8), 0, 0.5 * workload.horizon),
        ]
        results = engine.execute_many(queries)
        assert len(results) == 2


class TestSampledQueries:
    @pytest.fixture()
    def engine(self, sampled_net, sampled_form):
        return QueryEngine(sampled_net, sampled_form)

    def test_lower_bound_value_exact_on_covered_region(
        self, engine, sampled_net, workload
    ):
        box = BBox(1.5, 1.5, 8.5, 8.5)
        t2 = 0.5 * workload.horizon
        result = engine.execute(RangeQuery(box, 0.0, t2, bound=LOWER))
        if result.missed:
            pytest.skip("sampled graph too coarse for this seed")
        covered = engine.region_junctions(result)
        assert result.value == occupancy_count(workload.trips, covered, t2)

    def test_upper_bound_geq_lower_bound(self, engine, workload):
        box = BBox(2.5, 2.5, 7.5, 7.5)
        t2 = 0.5 * workload.horizon
        lower = engine.execute(RangeQuery(box, 0.0, t2, bound=LOWER))
        upper = engine.execute(RangeQuery(box, 0.0, t2, bound=UPPER))
        if lower.missed or upper.missed:
            pytest.skip("approximation unavailable at this sampling level")
        assert upper.value >= lower.value

    def test_perimeter_cheaper_than_flood(
        self, sampled_net, sampled_form, full_net, full_form, workload
    ):
        box = BBox(2, 2, 8, 8)
        t2 = 0.5 * workload.horizon
        query = RangeQuery(box, 0.0, t2)
        sampled = QueryEngine(sampled_net, sampled_form).execute(query)
        flooded = QueryEngine(
            full_net, full_form, access_mode="flood"
        ).execute(query)
        if not sampled.missed:
            assert sampled.nodes_accessed < flooded.nodes_accessed

    def test_accounting_fields_populated(self, engine, workload):
        box = BBox(1.5, 1.5, 8.5, 8.5)
        result = engine.execute(
            RangeQuery(box, 0.0, 0.5 * workload.horizon)
        )
        if result.missed:
            pytest.skip("missed")
        assert result.edges_accessed > 0
        assert result.nodes_accessed > 0
        assert result.elapsed >= 0.0
        assert result.regions

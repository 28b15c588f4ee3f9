"""Flight recorder.

Covers the always-on query flight recorder — a ring of the per-query
records (:class:`~repro.query.QueryResult`) themselves: bounded,
oldest-first eviction, strict slow-query promotion, slow-ring survival,
the memory watermarks a promoted record carries, engine and framework
threading, survival of a re-deploy — and the sharded engine's records
(the batch's stage table, no recorder).  A seeded faulty run past the
ring's capacity holds EXPLAIN against a plain execute, the ring bound,
and strict JSON for the flight dump and EXPLAIN's dict.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from test_query_planner import _battery, _deployment

from repro.core import FrameworkConfig, InNetworkFramework
from repro.geometry import BBox
from repro.obs import (
    FlightRecorder,
    NULL_INSTRUMENTATION,
    memory_snapshot,
    query_digest,
    record_dict,
)
from repro.query import (
    QueryEngine,
    QueryResult,
    RangeQuery,
    SHARDED_STAGES,
    ShardedQueryEngine,
)
from repro.trajectories import EventColumns

HORIZON = 86400.0


@pytest.fixture(scope="module")
def deployment():
    """(network, form, columns, battery) shared by the sharded tests."""
    network, form, workload = _deployment("organic", 8, seed=37)
    domain = network.domain
    columns = EventColumns.from_events(domain, workload.events(domain))
    battery = _battery(domain, HORIZON, seed=61)
    return network, form, columns, battery


def _query(i: int = 0) -> RangeQuery:
    return RangeQuery(BBox(0, 0, 5 + i, 5), 0.0, 3600.0)


def _record(i: int = 0, planner="compiled", elapsed=1e-4, **fields):
    """A per-query record as an engine's ``finish`` would build it."""
    return QueryResult(
        _query(i), fields.pop("value", 0.0), False,
        planner=planner, elapsed=elapsed, **fields,
    )


# ----------------------------------------------------------------------
# Ring-buffer bounds
# ----------------------------------------------------------------------
class TestRing:
    def test_capacity_never_exceeded(self):
        flight = FlightRecorder(capacity=8)
        for i in range(100):
            flight.keep(_record(i))
            assert len(flight) <= 8
        assert len(flight) == 8
        assert flight.total == 100

    def test_oldest_first_eviction(self):
        flight = FlightRecorder(capacity=4)
        for i in range(10):
            flight.keep(_record(i))
        seqs = [entry.seq for entry in flight.records]
        assert seqs == [7, 8, 9, 10]  # newest 4 survive, oldest first

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_dump_round_trip(self, tmp_path):
        flight = FlightRecorder(capacity=4, slow_threshold_s=1e-6)
        flight.keep(_record(planner="python", elapsed=0.5, value=3.0,
                            fanout=2, stage_s={"route": 0.1}))
        path = tmp_path / "flight.json"
        flight.dump(path)
        doc = json.loads(path.read_text())
        assert doc["capacity"] == 4
        assert doc["total"] == 1
        assert doc["slow_total"] == 1
        (entry,) = doc["records"]
        assert entry["digest"] == query_digest(_query())
        assert entry["planner"] == "python"
        assert entry["slow"] is True
        assert entry["stage_s"] == {"route": 0.1}


# ----------------------------------------------------------------------
# Slow-query promotion
# ----------------------------------------------------------------------
class TestPromotion:
    def test_promotion_strictly_above_threshold(self):
        flight = FlightRecorder(slow_threshold_s=0.01)
        at, below, above = (
            _record(elapsed=seconds) for seconds in (0.01, 0.0099, 0.0101)
        )
        assert [flight.keep(r) for r in (at, below, above)] == [
            False, False, True,
        ]
        assert not at.slow and not below.slow
        assert above.slow
        assert flight.slow_total == 1
        assert flight.as_dict()["slow"] == [record_dict(above)]

    def test_slow_records_survive_fast_traffic(self):
        flight = FlightRecorder(capacity=8, slow_threshold_s=0.01)
        slow = _record(elapsed=0.5)
        flight.keep(slow)
        for i in range(50):  # cycle the main ring many times over
            flight.keep(_record(i))
        assert not any(kept is slow for kept in flight.records)
        assert flight.as_dict()["slow"] == [record_dict(slow)]

    def test_detail_attached_by_caller(self):
        flight = FlightRecorder(slow_threshold_s=1e-6)
        entry = _record(planner="sharded", elapsed=0.2)
        assert flight.keep(entry) and entry.slow
        entry.detail = {"shards": 4}
        assert flight.as_dict()["slow"][0]["detail"] == {"shards": 4}

    def test_digest_stable_and_distinct(self):
        assert query_digest(_query(0)) == query_digest(_query(0))
        assert query_digest(_query(0)) != query_digest(_query(1))

    def test_memory_snapshot_fields(self):
        snapshot = memory_snapshot()
        assert set(snapshot) == {"peak_rss_bytes", "alloc_peak_bytes"}
        assert snapshot["peak_rss_bytes"] is None or (
            snapshot["peak_rss_bytes"] > 0
        )
        assert snapshot["alloc_peak_bytes"] is None  # not tracing here


# ----------------------------------------------------------------------
# Engine threading (single-process) and the sharded engine's records
# ----------------------------------------------------------------------
class TestEngineRecording:
    def test_query_engine_records_each_query(self, deployment):
        network, form, _, battery = deployment
        flight = FlightRecorder(slow_threshold_s=1e9)
        engine = QueryEngine(network, form, flight=flight)
        results = [engine.execute(query) for query in battery[:10]]
        assert flight.total == 10
        # The ring holds the results themselves, not copies of them.
        assert all(
            kept is result for kept, result in zip(flight.records, results)
        )
        assert [kept.seq for kept in flight.records] == list(range(1, 11))
        answered = [e for e in flight.records if not e.missed]
        missed = [e for e in flight.records if e.missed]
        assert answered
        for entry in answered:
            assert entry.planner == engine._planner.name
            assert entry.elapsed > 0
            assert "integrate" in entry.stage_s
        for entry in missed:  # misses record the phases that did run
            assert "integrate" not in entry.stage_s
        for entry in flight.records:
            # A repeated (box, bound) pair is planned from the engine's
            # plan table: no plan phase runs for it.
            planned = "resolve_junctions" in entry.stage_s
            assert planned != bool(entry.cache_hits)

    def test_promotion_captures_provenance(self, deployment):
        network, form, _, battery = deployment
        flight = FlightRecorder(slow_threshold_s=1e-9)
        # The default bundle: the internals are on every record.
        engine = QueryEngine(network, form, flight=flight)
        result = engine.execute(battery[0])
        assert flight.records[-1] is result
        assert result.slow
        assert result.detail["stage_s"] is result.stage_s
        assert result.detail["provenance"] == {
            "planner": engine._planner.name,
            "junction_count": result.junction_count,
            "region_ids": list(result.regions),
            "boundary_length": result.edges_accessed,
            "sensors_accessed": result.nodes_accessed,
            "cache_served": False,
            "cache_hits": {},
            "shared_fill_s": 0.0,
        }
        assert result.junction_count > 0

    def test_sharded_engine_records_stage_breakdown(self, deployment):
        """A scattered batch's records share its one route / scatter /
        worker_wait / merge table; no recorder stamps or promotes
        them."""
        network, _, columns, battery = deployment
        with ShardedQueryEngine(network, columns, shards=4) as engine:
            results = engine.execute_batch(battery[:6])
        answered = [r for r in results if not r.missed]
        assert answered, "battery produced no answered queries"
        for result in answered:
            assert result.planner == "sharded"
            assert result.stage_s is answered[0].stage_s
            assert set(result.stage_s) == set(SHARDED_STAGES)
            assert result.seq == 0 and result.detail is None


# ----------------------------------------------------------------------
# Framework threading
# ----------------------------------------------------------------------
class TestFrameworkFlight:
    @pytest.fixture(scope="class")
    def framework(self, request):
        organic_domain = request.getfixturevalue("organic_domain")
        workload = request.getfixturevalue("workload")
        fw = InNetworkFramework(
            organic_domain,
            flight=FlightRecorder(capacity=64, slow_threshold_s=1e-9),
        )
        fw.deploy(FrameworkConfig(selector="quadtree", budget=20, seed=3))
        fw.ingest_trips(workload.trips)
        return fw

    def test_config_sizes_recorder(self, framework, organic_domain):
        """The recorder's two settings arrive with it, through the
        constructor; without one the framework builds the default, and
        without a bundle it keeps the shared null one."""
        flight = framework.flight_log()
        assert flight.capacity == 64
        assert flight.slow_threshold_s == 1e-9
        plain = InNetworkFramework(organic_domain)
        default = plain.flight_log()
        assert (default.capacity, default.slow_threshold_s) == (256, 0.1)
        assert plain.obs is NULL_INSTRUMENTATION

    def test_queries_recorded_and_promoted(self, framework, workload):
        flight = framework.flight_log()
        before = flight.total
        result = framework.query(BBox(1, 1, 9, 9), 0.0, workload.horizon / 2)
        assert flight.total == before + 1
        assert flight.records[-1] is result
        assert flight.slow_total >= 1  # threshold is one nanosecond

    def test_slow_record_carries_memory(self, framework, workload):
        """A promoted record carries the process's peak RSS, and the
        flight log's slow ring shows it."""
        result = framework.query(BBox(1, 1, 9, 9), 0.0, workload.horizon / 2)
        flight = framework.flight_log()
        assert result.slow
        assert flight.as_dict()["slow"][-1] == record_dict(result)
        assert result.peak_rss_bytes is not None and result.peak_rss_bytes > 0
        assert record_dict(result)["peak_rss_bytes"] == result.peak_rss_bytes

    def test_injected_recorder_survives_deploy(self, organic_domain):
        mine = FlightRecorder(capacity=7)
        fw = InNetworkFramework(organic_domain, flight=mine)
        fw.deploy(FrameworkConfig(selector="uniform", budget=10, seed=0))
        assert fw.flight_log() is mine
        assert mine.capacity == 7

    def test_flight_log_survives_redeploy(self, organic_domain, workload):
        """A re-deploy keeps the recorder — default or injected — and
        what it holds; an engine handed out before it writes to the
        same ring as one handed out after."""
        fw = InNetworkFramework(organic_domain)
        fw.deploy(FrameworkConfig(selector="quadtree", budget=20, seed=3))
        fw.ingest_trips(workload.trips)
        flight, before = fw.flight_log(), fw.engine()
        box, t2 = BBox(1, 1, 9, 9), workload.horizon / 2
        first = fw.query(box, 0.0, t2)
        fw.deploy(FrameworkConfig(selector="uniform", budget=10, seed=0))
        assert fw.flight_log() is flight
        second = fw.query(box, 0.0, t2)
        third = before.execute(RangeQuery(box, 0.0, t2))
        assert [kept.seq for kept in flight.records] == [1, 2, 3]
        assert all(
            kept is result
            for kept, result in zip(flight.records, (first, second, third))
        )
        fw.close()


# ----------------------------------------------------------------------
# A faulty run end to end: EXPLAIN, the ring bound, strict JSON
# ----------------------------------------------------------------------
def _reject(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


class TestFaultyRun:
    """A seeded world queried under faults through a flight ring that
    promotes every query (slow threshold 0), as ``repro demo --faults P
    --flight PATH --slow-ms 0`` does, over more queries than the ring
    holds."""

    CAPACITY = 16

    @pytest.fixture(scope="class")
    def run(self):
        from repro.mobility import organic_city
        from repro.network import FaultConfig
        from repro.trajectories import WorkloadConfig, generate_workload

        fw = InNetworkFramework.from_road_graph(
            organic_city(blocks=40, rng=np.random.default_rng(1)),
            flight=FlightRecorder(
                capacity=self.CAPACITY, slow_threshold_s=0.0
            ),
        )
        fw.deploy(FrameworkConfig(selector="quadtree", budget=16, seed=1))
        workload = generate_workload(
            fw.domain,
            WorkloadConfig(n_trips=150, horizon_days=1.0,
                           mean_dwell=3600.0, seed=1),
        )
        fw.ingest_trips(workload.trips)
        injector = fw.fault_injector(
            FaultConfig(seed=1, sensor_failure_rate=0.1, drop_rate=0.05)
        )
        bounds = fw.domain.bounds
        rng = np.random.default_rng(1)
        queries = [
            RangeQuery(
                BBox.from_center(
                    (bounds.min_x + bounds.width * x,
                     bounds.min_y + bounds.height * y),
                    bounds.width * w, bounds.height * w,
                ),
                0.0, workload.horizon * t,
            )
            for x, y, w, t in rng.uniform(
                (0.2, 0.2, 0.2, 0.2), (0.8, 0.8, 0.6, 1.0),
                (3 * self.CAPACITY, 4),
            )
        ]
        # A box between the junctions: it resolves to no region.
        corner = (bounds.min_x + 1e-6, bounds.min_y + 1e-6)
        queries.append(
            RangeQuery(BBox.from_center(corner, 1e-6, 1e-6), 0.0, 1.0)
        )
        engine = fw.engine(faults=injector)
        results = [engine.execute(query) for query in queries]
        flight = fw.flight_log()
        ring = (len(flight), flight.total, flight.records)
        yield fw, injector, queries, results, ring
        fw.close()

    def test_ring_holds_the_newest_queries_within_its_bound(self, run):
        _, _, queries, results, (held, total, records) = run
        assert held <= self.CAPACITY
        assert total == len(queries)
        assert all(
            kept is result
            for kept, result in zip(records, results[-self.CAPACITY:])
        )

    def test_explain_agrees_with_execute(self, run):
        fw, _, queries, _, _ = run
        engine = fw.engine()
        for query in queries:
            reference = engine.execute(query)
            plan = engine.explain(query).record
            for field in ("regions", "boundary_length", "nodes_accessed",
                          "edges_accessed", "value"):
                assert getattr(plan, field) == getattr(reference, field), (
                    field
                )

    def test_flight_dump_is_strict_json(self, run, tmp_path):
        fw, _, _, results, _ = run
        assert any(result.degradation is not None for result in results)
        path = tmp_path / "flight.json"
        fw.flight_log().dump(path)
        doc = json.loads(path.read_text(), parse_constant=_reject)
        assert doc["records"] and doc["slow"]
        assert any(record["missed"] for record in doc["records"])
        assert any(record["missed"] for record in doc["slow"])

    def test_explain_dict_is_strict_json(self, run):
        fw, injector, queries, _, _ = run
        for query in (queries[0], queries[-1]):
            plan = fw.explain(query.box, query.t1, query.t2,
                              faults=injector)
            json.loads(json.dumps(plan.as_dict()), parse_constant=_reject)

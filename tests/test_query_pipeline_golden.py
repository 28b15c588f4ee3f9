"""Golden snapshot of the query pipeline's observable behaviour.

One fixed-seed deployment and battery run through every executor —
``execute`` and ``execute_batch`` on both planners, a 2-shard/1-worker
:class:`ShardedQueryEngine`, a fault-injecting engine and a
sketch-enabled engine — with everything a caller or an operator can
observe pinned against ``tests/data/query_pipeline_golden.json``
(the sharded engine has no tracer, flight recorder or EXPLAIN: its
rows pin only its results, its metrics and its records' flight view):

- result fields (``_key`` + ``approximate`` / ``degradation`` /
  ``cache_served``) and the record's non-timing internals;
- the multiset of tracing span names per executor;
- the delta of every ``repro_query*`` / ``repro_queries_total`` /
  ``repro_sketch_queries_total`` series (seconds-valued series keep
  their observation count, not their sum);
- the flight log's view of each record (``record_dict``), including
  the slow-promotion detail keys — and that the ring entry *is* the
  returned result, dumped under exactly the flight-log keys;
- ``explain().format()`` with the millisecond timings masked.

The other suites pin *answers*; this one pins the accounting around
them, so a refactor of the pipeline cannot silently drop a span, a
counter or a field of the record.  Regenerate (only when an observable
change is intended) with ``PYTHONPATH=src python
tests/test_query_pipeline_golden.py``.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from repro.forms.sketch import EdgeCountSketch
from repro.geometry import BBox
from repro.network import FaultConfig, FaultInjector
from repro.obs import (
    FlightRecorder,
    Instrumentation,
    record_dict,
    use_registry,
)
from repro.query import (
    LOWER,
    UPPER,
    QueryEngine,
    RangeQuery,
    ShardedQueryEngine,
)
from repro.trajectories import EventColumns

from test_query_planner import _battery, _deployment, _key

GOLDEN = Path(__file__).parent / "data" / "query_pipeline_golden.json"

#: Keys of one dumped flight record, in order — the JSON consumers'
#: contract.  The last three appear only on a promoted record (the
#: allocation peak only while tracemalloc is tracing).
FLIGHT_KEYS = (
    "seq", "wall_time", "digest", "kind", "bound", "planner", "elapsed_s",
    "value", "missed", "fanout", "stage_s", "degraded", "generation",
    "slow", "peak_rss_bytes", "alloc_peak_bytes", "detail",
)

_SERIES = ("repro_query", "repro_queries_total", "repro_sketch_queries_total")
_MS = re.compile(r"\d+\.\d+ms")


def _result(result):
    out = list(_key(result)) + [result.approximate, result.cache_served]
    out.append(
        None if result.degradation is None else astuple(result.degradation)
    )
    hits = sorted(result.cache_hits.items())
    out.append(
        [
            result.planner,
            result.junction_count,
            result.regions,
            result.boundary_length,
            result.nodes_accessed,
            result.cache_served,
            ",".join(table for table, hit in hits if hit),
            ",".join(table for table, hit in hits if not hit),
            result.shared_fill_s > 0,
            ",".join(sorted(result.stage_s)),
        ]
    )
    return out


def _spans(tracer):
    return dict(sorted(Counter(s.name for s in tracer.walk()).items()))


def _metrics(registry):
    """Non-zero ``repro_query*`` series; seconds keep only the count."""
    dump = registry.dump()
    out = {}
    for name, labels, value in dump["counters"]:
        if name.startswith(_SERIES) and value:
            key = name + json.dumps(labels)
            out[key] = "t" if "seconds" in name else value
    for name, labels, state in dump["histograms"]:
        if name.startswith(_SERIES) and state["count"]:
            key = name + json.dumps(labels)
            out[key] = (
                [state["count"]]
                if "seconds" in name
                else [state["count"], state["sum"]]
            )
    return out


def _flight(records):
    out = []
    for record in records:
        entry = record_dict(record)
        detail = entry.get("detail")
        if detail is not None:
            # The promotion payload repeats the record's own stages.
            assert sorted(detail["stage_s"]) == sorted(entry["stage_s"])
        out.append(
            [
                entry["digest"],
                entry["planner"],
                entry["value"],
                entry["missed"],
                entry["fanout"],
                ",".join(sorted(entry["stage_s"])),
                entry["degraded"],
                entry["generation"],
                entry["slow"],
                None
                if detail is None
                else ",".join(key for key in sorted(detail) if detail[key]),
            ]
        )
    return out


def _run(build, run, explain_queries):
    """One executor: fresh registry, live tracer, and a flight
    recorder that promotes every query (threshold below zero), so the
    slow-detail path is pinned too."""
    with use_registry() as registry:
        obs = Instrumentation.on()
        flight = FlightRecorder(capacity=1024, slow_threshold_s=-1.0)
        engine = build(obs, flight)
        results = run(engine)
        # One record per query: the ring holds the very objects the
        # caller was handed, and dumps each under exactly the
        # flight-log keys (promoted here, hence the three extras).
        assert len(flight.records) == len(results)
        assert all(
            kept is result
            for kept, result in zip(flight.records, results)
        )
        for entry in flight.as_dict()["records"]:
            keys = tuple(entry)
            assert keys[:14] == FLIGHT_KEYS[:14]
            assert "detail" in keys and set(keys) <= set(FLIGHT_KEYS)
        snapshot = {
            "results": [_result(r) for r in results],
            "spans": _spans(obs.tracer),
            "metrics": _metrics(registry),
            "flight": _flight(flight.records),
        }
        snapshot["explain"] = [
            _MS.sub("#ms", engine.explain(q).format())
            for q in explain_queries
        ]
        # EXPLAIN runs the query: its accounting is observable too.
        snapshot["metrics_after_explain"] = _metrics(registry)
    return snapshot


def _snapshot():
    network, form, workload = _deployment("organic", 12, seed=37)
    domain = network.domain
    columns = EventColumns.from_events(domain, workload.events(domain))
    queries = _battery(domain, workload.horizon, 91, n_boxes=8)
    # Rectangles off the map resolve to no junction at all: the
    # earliest miss exit, which the random battery never takes.
    bounds = domain.bounds
    outside = BBox.from_center(
        (bounds.max_x + bounds.width, bounds.max_y + bounds.height), 1.0, 1.0
    )
    queries += [
        RangeQuery(outside, 0.0, workload.horizon, bound=bound)
        for bound in (LOWER, UPPER)
    ]
    reference = QueryEngine(network, form).execute_batch(queries)
    answered = [r.query for r in reference if not r.missed]
    missed = [r.query for r in reference if r.missed]
    explain_queries = answered[:2] + missed[:1]
    sketch = EdgeCountSketch.from_columns(
        network.observed_columns(columns), bins=64
    )
    # Alternate generous / impossible tolerances / none: sketch hits,
    # fallbacks and plain exact queries in one battery.
    tolerant = [
        replace(q, max_error=(1e9, 0.0, None)[i % 3])
        for i, q in enumerate(queries)
    ]

    def injector():
        return FaultInjector(
            FaultConfig(seed=5, intermittent_rate=0.3, drop_rate=0.1),
            network.sensors,
            crashed=network.sensors[::2],
        )

    def single(planner, **extra):
        return lambda obs, flight: QueryEngine(
            network, form, planner=planner, instrumentation=obs,
            flight=flight, **extra,
        )

    def sharded(events):
        """The sharded engine's row: the views of its records (the
        flight log's, unstamped), its metrics, no span and no EXPLAIN."""
        with use_registry() as registry:
            with ShardedQueryEngine(
                network, events, shards=2, workers=1
            ) as engine:
                results = engine.execute_batch(queries)
            metrics = _metrics(registry)
        return {
            "results": [_result(r) for r in results],
            "metrics": metrics,
            "flight": _flight(results),
        }

    # Events on two monitored walls only: most approximations touch no
    # shard and take the router's locally-answered "zero" plan.
    walls = np.unique(network.observed_columns(columns).edge_id)[[0, -1]]
    sparse = columns.select(np.flatnonzero(np.isin(columns.edge_id, walls)))

    def one_by_one(engine):
        return [engine.execute(q) for q in queries]

    def batched(engine):
        return engine.execute_batch(queries)

    out = {}
    for planner in ("auto", "python"):
        out[f"execute/{planner}"] = _run(
            single(planner), one_by_one, explain_queries
        )
        out[f"execute_batch/{planner}"] = _run(
            single(planner), batched, explain_queries
        )
        out[f"faulty/execute/{planner}"] = _run(
            single(planner, faults=injector()), one_by_one, explain_queries
        )
    out["faulty/execute_batch/server_fanout"] = _run(
        single("auto", faults=injector(), dispatch_strategy="server_fanout"),
        batched, explain_queries,
    )
    out["flood/execute_batch"] = _run(
        single("auto", access_mode="flood", static_eval="min"),
        batched, explain_queries,
    )
    out["sharded"] = sharded(columns)
    out["sharded/sparse"] = sharded(sparse)
    tolerant_explain = [replace(q, max_error=1e9) for q in explain_queries]
    out["sketch/execute"] = _run(
        single("auto", sketch=sketch),
        lambda engine: [engine.execute(q) for q in tolerant],
        tolerant_explain,
    )
    out["sketch/execute_batch"] = _run(
        single("auto", sketch=sketch),
        lambda engine: engine.execute_batch(tolerant),
        tolerant_explain,
    )
    # Through JSON so tuples/lists and int/float keys compare equal.
    return json.loads(json.dumps(out))


@pytest.fixture(scope="module")
def snapshot():
    return _snapshot()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_same_executors(snapshot, golden):
    assert sorted(snapshot) == sorted(golden)
    for executor, expected in golden.items():
        assert sorted(snapshot[executor]) == sorted(expected), executor


@pytest.mark.parametrize(
    "section",
    ["results", "spans", "metrics", "flight", "explain",
     "metrics_after_explain"],
)
def test_golden(snapshot, golden, section):
    for executor, expected in golden.items():
        if section not in expected:
            continue  # the sharded rows pin no spans and no EXPLAIN
        assert snapshot[executor][section] == expected[section], (
            f"{executor}: {section} drifted from the golden snapshot"
        )


def test_battery_covers_every_outcome(golden):
    """The snapshot is only worth pinning if it exercises answered,
    missed, cache-served, degraded and sketch-served queries."""
    batch = golden["execute_batch/auto"]["results"]
    assert any(r[1] for r in batch) and not all(r[1] for r in batch)
    assert any(r[7] for r in batch)  # cache_served
    faulty = golden["faulty/execute/auto"]["results"]
    assert any(r[6] for r in faulty)  # approximate
    sketch = golden["sketch/execute_batch"]["metrics"]
    assert sketch['repro_sketch_queries_total[["outcome", "hit"]]'] > 0
    assert sketch['repro_sketch_queries_total[["outcome", "fallback"]]'] > 0
    assert any(r[1] and r[9][1] == 0 for r in batch)  # junction-less miss
    fanouts = [f[4] for f in golden["sharded/sparse"]["flight"]]
    missed = [f[3] for f in golden["sharded/sparse"]["flight"]]
    assert any(n > 0 for n in fanouts)
    assert any(n == 0 and not m for n, m in zip(fanouts, missed))  # "zero"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    # One executor per line: diffable without being 10k lines long.
    GOLDEN.write_text(
        "{\n"
        + ",\n".join(
            json.dumps(name) + ": "
            + json.dumps(sections, sort_keys=True, separators=(",", ":"))
            for name, sections in sorted(_snapshot().items())
        )
        + "\n}\n"
    )
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")

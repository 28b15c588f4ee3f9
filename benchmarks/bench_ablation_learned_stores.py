"""Ablation: learned count-store variants (§4.8 and its extension).

Compares, on one sampled configuration:

- the exact tracking form (reference);
- the offline ModeledCountStore (fit once over all history);
- the online BufferedEdgeStore (model covers only the previous window,
  the paper's base design — answers "at most 2n events in the past");
- the online IncrementalEdgeStore (refit folds the old model in, the
  paper's sketched storage extension).

Reported: query error vs the exact form, storage, and ingestion rate.
"""

from __future__ import annotations

import time

import numpy as np

from _common import N_QUERIES, emit, pipeline
from lib.harness import FIXED_QUERY_AREA
from lib.tables import format_table
from repro.models import (
    BufferedEdgeStore,
    IncrementalEdgeStore,
    ModeledCountStore,
    PiecewiseLinearModel,
)
from repro.query import QueryEngine

GRAPH_SIZE = 0.064
HEADERS = (
    "store",
    "extra rel.err (median)",
    "abs err (median)",
    "storage (bytes)",
    "ingest (events/s)",
)


def _factory():
    return PiecewiseLinearModel(segments=16)


def bench_ablation_learned_stores(benchmark):
    p = pipeline()
    m = p.budget_for_fraction(GRAPH_SIZE)
    network = p.network("quadtree", m, seed=1)
    form = p.form(network)
    observed = network.observed_events(p.events)
    exact_engine = QueryEngine(network, form)
    queries = p.standard_queries(FIXED_QUERY_AREA, n=N_QUERIES)

    def online(store_cls):
        store = store_cls(_factory, buffer_size=128)
        start = time.perf_counter()
        for event in observed:
            store.record(event.tail, event.head, event.t)
        rate = len(observed) / (time.perf_counter() - start)
        return store, rate

    stores = {}
    start = time.perf_counter()
    stores["offline modeled"] = (
        ModeledCountStore.fit(form, _factory),
        len(observed) / (time.perf_counter() - start),
    )
    stores["online windowed"] = online(BufferedEdgeStore)
    stores["online incremental"] = online(IncrementalEdgeStore)

    rows = []
    for name, (store, rate) in stores.items():
        engine = QueryEngine(network, store)
        deltas, absolute = [], []
        for query in queries:
            exact = exact_engine.execute(query)
            approx = engine.execute(query)
            if exact.missed or exact.value == 0:
                continue
            deltas.append(abs(approx.value - exact.value) / abs(exact.value))
            absolute.append(abs(approx.value - exact.value))
        rows.append(
            [
                name,
                float(np.median(deltas)) if deltas else float("nan"),
                float(np.median(absolute)) if absolute else float("nan"),
                store.storage_bytes,
                rate,
            ]
        )
    rows.append(
        ["exact form", 0.0, 0.0, form.total_events * 8, float("nan")]
    )
    emit(
        "ablation_stores",
        "Ablation: learned store variants (piecewise-16, buffer 128)",
        format_table(HEADERS, rows),
    )

    engine = QueryEngine(network, stores["offline modeled"][0])
    benchmark.pedantic(
        lambda: [engine.execute(q) for q in queries],
        rounds=3,
        iterations=1,
    )

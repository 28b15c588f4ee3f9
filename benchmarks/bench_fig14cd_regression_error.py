"""Figure 14c/d: additional error introduced by the regression models.

The error here is measured *relative to the exact stored counts on the
same sampled graph* (not against the unsampled graph), isolating the
model-inference error exactly as the paper does.  Paper shape: simple
regressors add only a small overhead (~2.5% on average) in exchange
for constant storage and O(1) lookups.
"""

from __future__ import annotations

import numpy as np

from _common import N_QUERIES, dense_pipeline, emit
from lib.harness import FIXED_QUERY_AREA
from lib.tables import format_table
from repro.models import default_model_factories, ModeledCountStore
from repro.query import QueryEngine, TRANSIENT

GRAPH_SIZE = 0.064

HEADERS = (
    "model",
    "kind",
    "extra rel.err (median)",
    "p75",
    "abs err (median)",
    "storage (bytes)",
    "vs exact (bytes)",
)


def bench_fig14cd_regression_model_error(benchmark):
    p = dense_pipeline()
    m = p.budget_for_fraction(GRAPH_SIZE)
    network = p.network("quadtree", m, seed=1)
    form = p.form(network)
    exact_engine = QueryEngine(network, form)
    exact_bytes = form.total_events * 8

    from repro.models import PiecewiseLinearModel, StepHistogramModel

    factories = dict(default_model_factories())
    factories["piecewise-16"] = lambda: PiecewiseLinearModel(16)
    factories["piecewise-48"] = lambda: PiecewiseLinearModel(48)
    factories["histogram-64"] = lambda: StepHistogramModel(64)

    rows = []
    stores = {}
    for name, factory in factories.items():
        store = ModeledCountStore.fit(form, factory)
        stores[name] = store
        model_engine = QueryEngine(network, store)
        for kind in ("static", TRANSIENT):
            queries = p.standard_queries(
                FIXED_QUERY_AREA, kind=kind, n=N_QUERIES
            )
            deltas, absolute = [], []
            for query in queries:
                exact = exact_engine.execute(query)
                approx = model_engine.execute(query)
                if exact.missed or exact.value == 0:
                    continue
                deltas.append(
                    abs(approx.value - exact.value) / abs(exact.value)
                )
                absolute.append(abs(approx.value - exact.value))
            rows.append(
                [
                    name,
                    kind,
                    float(np.median(deltas)) if deltas else float("nan"),
                    float(np.percentile(deltas, 75)) if deltas else float("nan"),
                    float(np.median(absolute)) if absolute else float("nan"),
                    store.storage_bytes,
                    exact_bytes,
                ]
            )
    emit(
        "fig14cd",
        "Fig 14c/d: regression-model error overhead vs exact counts",
        format_table(HEADERS, rows),
    )

    engine = QueryEngine(network, stores["piecewise"])
    queries = p.standard_queries(FIXED_QUERY_AREA, n=N_QUERIES)
    benchmark.pedantic(
        lambda: [engine.execute(q) for q in queries],
        rounds=3,
        iterations=1,
    )

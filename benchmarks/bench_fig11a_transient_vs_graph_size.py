"""Figure 11a: transient-count lower-bound relative error vs graph size.

Same sweep as Fig 12a with transient (net-change) queries; the paper
shows the same ordering (submodular lowest, kd/QuadTree best samplers,
baseline needing far more samples).
"""

from __future__ import annotations

from _common import (
    ERROR_HEADERS,
    N_QUERIES,
    emit,
    emit_chart,
    pipeline,
    sweep_methods_over_sizes,
)
from lib.harness import FIXED_QUERY_AREA
from lib.tables import format_table
from repro.query import TRANSIENT


def bench_fig11a_transient_error_vs_graph_size(benchmark):
    p = pipeline()
    queries = p.standard_queries(
        FIXED_QUERY_AREA, kind=TRANSIENT, n=N_QUERIES
    )
    rows, series = sweep_methods_over_sizes(p, queries)
    emit(
        "fig11a",
        f"Fig 11a: transient lower-bound error vs graph size "
        f"(query area {FIXED_QUERY_AREA:.2%})",
        format_table(ERROR_HEADERS, rows),
        series=series,
        config=p.config,
    )
    emit_chart("fig11a", "Fig 11a: transient error vs graph size", series)

    m = p.budget_for_fraction(0.256)
    engine = p.engine(p.network("quadtree", m, seed=1))
    benchmark.pedantic(
        lambda: [engine.execute(q) for q in queries],
        rounds=3,
        iterations=1,
    )

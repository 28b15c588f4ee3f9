"""Figure 12a: static-count lower-bound relative error vs sampled-graph size.

Paper shape: every method's error falls as the sampled graph grows and
plateaus; kd-tree/QuadTree are the best oblivious samplers, submodular
maximization is lowest overall, and the baseline needs far more samples
to approach the plateau.
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


def bench_fig12a_static_error_vs_graph_size(benchmark):
    p = pipeline()
    queries = p.standard_queries(FIXED_QUERY_AREA, kind="static", n=N_QUERIES)
    rows, series = sweep_methods_over_sizes(p, queries)
    emit(
        "fig12a",
        f"Fig 12a: static lower-bound error vs graph size "
        f"(query area {FIXED_QUERY_AREA:.2%})",
        format_table(ERROR_HEADERS, rows),
        series=series,
        config=p.config,
    )
    emit_chart("fig12a", "Fig 12a: static error vs graph size", series)

    # Benchmark the steady-state configuration (25.6% QuadTree).
    m = p.budget_for_fraction(0.256)
    engine = p.engine(p.network("quadtree", m, seed=1))
    benchmark.pedantic(
        lambda: [engine.execute(q) for q in queries],
        rounds=3,
        iterations=1,
    )

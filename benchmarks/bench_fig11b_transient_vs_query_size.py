"""Figure 11b: transient-count relative error vs query-region size.

Same sweep as Fig 12b with transient queries over an extended range of
query sizes.
"""

from __future__ import annotations

from _common import ERROR_HEADERS, N_QUERIES, emit, pipeline
from lib.harness import STANDARD_AREA_FRACTIONS
from lib.tables import format_table
from bench_fig12b_static_vs_query_size import GRAPH_SIZE, _sweep
from repro.query import TRANSIENT


def bench_fig11b_transient_error_vs_query_size(benchmark):
    p = pipeline()
    rows = _sweep(p, TRANSIENT)
    emit(
        "fig11b",
        f"Fig 11b: transient error vs query size "
        f"(graph size {GRAPH_SIZE:.1%})",
        format_table(ERROR_HEADERS, rows),
    )

    m = p.budget_for_fraction(GRAPH_SIZE)
    engine = p.engine(p.network("quadtree", m, seed=1))
    queries = p.standard_queries(
        STANDARD_AREA_FRACTIONS[-1], kind=TRANSIENT, n=N_QUERIES
    )
    benchmark.pedantic(
        lambda: [engine.execute(q) for q in queries],
        rounds=3,
        iterations=1,
    )

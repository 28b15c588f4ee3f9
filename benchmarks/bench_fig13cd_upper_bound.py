"""Figure 13c/d: upper-bound approximation ratio vs graph size & query size.

The upper bound answers from the minimal union of sampled-graph
regions covering the query, so the estimate/actual ratio is >= 1 and
approaches 1 as either the sampled graph or the query region grows.
"""

from __future__ import annotations

from _common import N_QUERIES, emit, pipeline
from lib.harness import (
    FIXED_QUERY_AREA,
    STANDARD_AREA_FRACTIONS,
    STANDARD_SIZE_FRACTIONS,
    evaluate,
)
from lib.tables import format_table
from repro.query import UPPER

METHODS = ("uniform", "quadtree", "submodular")
HEADERS = ("x", *(f"{m} ratio" for m in METHODS), "miss(quadtree)")


def bench_fig13cd_upper_bound(benchmark):
    p = pipeline()

    queries = [
        q.with_bound(UPPER)
        for q in p.standard_queries(FIXED_QUERY_AREA, n=N_QUERIES)
    ]
    rows_c = []
    for fraction in STANDARD_SIZE_FRACTIONS:
        m = p.budget_for_fraction(fraction)
        row = [f"size {fraction:.2%}"]
        quad_miss = 0.0
        for method in METHODS:
            report = evaluate(
                p, p.engine(p.network(method, m, seed=1)).execute, queries
            )
            row.append(report.ratio.median)
            if method == "quadtree":
                quad_miss = report.miss_rate
        row.append(quad_miss)
        rows_c.append(row)

    m = p.budget_for_fraction(0.064)
    rows_d = []
    for fraction in STANDARD_AREA_FRACTIONS:
        area_queries = [
            q.with_bound(UPPER)
            for q in p.standard_queries(fraction, n=N_QUERIES)
        ]
        row = [f"area {fraction:.2%}"]
        quad_miss = 0.0
        for method in METHODS:
            report = evaluate(
                p,
                p.engine(p.network(method, m, seed=1)).execute,
                area_queries,
            )
            row.append(report.ratio.median)
            if method == "quadtree":
                quad_miss = report.miss_rate
        row.append(quad_miss)
        rows_d.append(row)

    emit(
        "fig13cd",
        "Fig 13c: upper-bound ratio vs graph size / "
        "Fig 13d: vs query size (ratio >= 1, decreasing)",
        format_table(HEADERS, rows_c) + "\n\n" + format_table(HEADERS, rows_d),
    )

    engine = p.engine(p.network("quadtree", m, seed=1))
    benchmark.pedantic(
        lambda: [engine.execute(q) for q in queries],
        rounds=3,
        iterations=1,
    )

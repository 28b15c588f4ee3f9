"""Figure 13a/b: fraction of queries missed vs graph size and query size.

Paper shape: misses are concentrated at tiny sampled graphs and tiny
query regions and vanish quickly; the submodular configuration almost
never misses because its walls enclose exactly the historical query
regions.
"""

from __future__ import annotations

from _common import METHODS, N_QUERIES, emit, pipeline
from lib.harness import (
    FIXED_QUERY_AREA,
    STANDARD_AREA_FRACTIONS,
    STANDARD_SIZE_FRACTIONS,
    evaluate,
)
from lib.tables import format_table

HEADERS_A = ("graph size", *METHODS, "baseline")
HEADERS_B = ("query area", *METHODS, "baseline")


def bench_fig13ab_query_misses(benchmark):
    p = pipeline()

    # (a) misses vs graph size at the fixed query area.
    queries = p.standard_queries(FIXED_QUERY_AREA, n=N_QUERIES)
    rows_a = []
    for fraction in STANDARD_SIZE_FRACTIONS:
        m = p.budget_for_fraction(fraction)
        row = [f"{fraction:.2%}"]
        for method in METHODS:
            report = evaluate(
                p, p.engine(p.network(method, m, seed=1)).execute, queries
            )
            row.append(report.miss_rate)
        report = evaluate(
            p, p.baseline_for_fraction(fraction, seed=1).execute, queries
        )
        row.append(report.miss_rate)
        rows_a.append(row)

    # (b) misses vs query size at the 6.4% graph size.
    m = p.budget_for_fraction(0.064)
    rows_b = []
    for fraction in STANDARD_AREA_FRACTIONS:
        area_queries = p.standard_queries(fraction, n=N_QUERIES)
        row = [f"{fraction:.2%}"]
        for method in METHODS:
            report = evaluate(
                p,
                p.engine(p.network(method, m, seed=1)).execute,
                area_queries,
            )
            row.append(report.miss_rate)
        report = evaluate(
            p, p.baseline_for_fraction(0.064, seed=1).execute, area_queries
        )
        row.append(report.miss_rate)
        rows_b.append(row)

    emit(
        "fig13ab",
        "Fig 13a: miss rate vs graph size / Fig 13b: miss rate vs query size",
        format_table(HEADERS_A, rows_a)
        + "\n\n"
        + format_table(HEADERS_B, rows_b),
    )

    engine = p.engine(p.network("quadtree", m, seed=1))
    benchmark.pedantic(
        lambda: [engine.execute(q) for q in queries],
        rounds=3,
        iterations=1,
    )

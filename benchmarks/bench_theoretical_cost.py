"""§4.9 theoretical cost: perimeter node count scaling.

The paper derives |N_P| ~ alpha * (A(Q)/A(T)) * |N| for the unsampled
graph (linear in both the query area and the graph size) and
|N~_P| ~ (A(Q)/A(T)) * m * k * g(|N|) with sub-linear g for the
sampled graph.  This bench measures both scalings empirically.
"""

from __future__ import annotations

import numpy as np

from _common import N_QUERIES, emit, pipeline
from lib.harness import STANDARD_AREA_FRACTIONS, evaluate
from lib.tables import format_table

HEADERS = (
    "query area",
    "flood nodes (unsampled)",
    "perimeter sensors (m=6.4%)",
    "perimeter sensors (m=25.6%)",
)


def bench_theoretical_cost_scaling(benchmark):
    p = pipeline()
    engines = {
        size: p.engine(p.network("quadtree", p.budget_for_fraction(size), seed=1))
        for size in (0.064, 0.256)
    }
    rows = []
    flood, perim_small = [], []
    for fraction in STANDARD_AREA_FRACTIONS:
        queries = p.standard_queries(fraction, n=N_QUERIES)
        exact_report = evaluate(p, p.exact_engine.execute, queries)
        sampled_reports = {
            size: evaluate(p, engine.execute, queries)
            for size, engine in engines.items()
        }
        rows.append(
            [
                f"{fraction:.2%}",
                exact_report.nodes_accessed.mean,
                sampled_reports[0.064].nodes_accessed.mean,
                sampled_reports[0.256].nodes_accessed.mean,
            ]
        )
        flood.append(exact_report.nodes_accessed.mean)
        if sampled_reports[0.064].nodes_accessed.count:
            perim_small.append(sampled_reports[0.064].nodes_accessed.mean)

    # Empirical scaling exponents (slope in log-log space).
    areas = np.array(STANDARD_AREA_FRACTIONS[: len(flood)])
    flood_slope = np.polyfit(np.log(areas), np.log(flood), 1)[0]
    summary = [["flood scaling exponent (expect ~1)", f"{flood_slope:.2f}"]]
    if len(perim_small) == len(areas):
        perim_slope = np.polyfit(np.log(areas), np.log(perim_small), 1)[0]
        summary.append(
            ["perimeter scaling exponent (expect < flood)", f"{perim_slope:.2f}"]
        )
    emit(
        "theoretical_cost",
        "§4.9: communication-cost scaling",
        format_table(HEADERS, rows)
        + "\n"
        + format_table(("quantity", "value"), summary),
    )

    queries = p.standard_queries(STANDARD_AREA_FRACTIONS[2], n=N_QUERIES)
    engine = engines[0.064]
    benchmark.pedantic(
        lambda: [engine.execute(q) for q in queries],
        rounds=3,
        iterations=1,
    )

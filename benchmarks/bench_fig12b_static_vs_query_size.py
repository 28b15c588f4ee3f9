"""Figure 12b: static-count relative error vs query-region size.

Graph size fixed at 6.4% (the paper's median size); x-axis sweeps the
query area as a fraction of the sensing area.  Paper shape: error
falls as queries grow (bigger regions are more likely to contain
sampled faces), with submodular scaling best.
"""

from __future__ import annotations

from _common import (
    ERROR_HEADERS,
    METHODS,
    N_QUERIES,
    SELECTION_SEEDS,
    emit,
    pipeline,
)
from lib.harness import STANDARD_AREA_FRACTIONS, evaluate
from lib.tables import format_table

GRAPH_SIZE = 0.064


def _sweep(p, kind: str):
    rows = []
    m = p.budget_for_fraction(GRAPH_SIZE)
    for fraction in STANDARD_AREA_FRACTIONS:
        queries = p.standard_queries(fraction, kind=kind, n=N_QUERIES)
        for method in METHODS:
            seeds = SELECTION_SEEDS if method != "submodular" else (1,)
            reports = [
                evaluate(
                    p,
                    p.engine(p.network(method, m, seed=seed)).execute,
                    queries,
                )
                for seed in seeds
            ]
            medians = [r.error.median for r in reports if r.error.count]
            miss = sum(r.miss_rate for r in reports) / len(reports)
            rows.append(
                [
                    f"{fraction:.2%}",
                    method,
                    sum(medians) / len(medians) if medians else float("nan"),
                    float("nan"),
                    float("nan"),
                    miss,
                ]
            )
        report = evaluate(
            p, p.baseline_for_fraction(GRAPH_SIZE, seed=1).execute, queries
        )
        rows.append(
            [
                f"{fraction:.2%}",
                "baseline",
                report.error.median,
                report.error.p25,
                report.error.p75,
                report.miss_rate,
            ]
        )
    return rows


def bench_fig12b_static_error_vs_query_size(benchmark):
    p = pipeline()
    rows = _sweep(p, "static")
    emit(
        "fig12b",
        f"Fig 12b: static error vs query size (graph size {GRAPH_SIZE:.1%})",
        format_table(ERROR_HEADERS, rows),
    )

    m = p.budget_for_fraction(GRAPH_SIZE)
    engine = p.engine(p.network("quadtree", m, seed=1))
    queries = p.standard_queries(STANDARD_AREA_FRACTIONS[-1], n=N_QUERIES)
    benchmark.pedantic(
        lambda: [engine.execute(q) for q in queries],
        rounds=3,
        iterations=1,
    )

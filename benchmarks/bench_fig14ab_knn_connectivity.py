"""Figure 14a/b: k-NN connectivity — error vs k, and edges accessed.

Paper shape (§5.7): with QuadTree selection, increasing k lowers the
relative error for the same query region (more, smaller faces), but
the number of edges accessed grows; k = 5 undercuts triangulation on
both error and edge accesses for small queries.
"""

from __future__ import annotations

from _common import N_QUERIES, emit, pipeline
from lib.harness import STANDARD_AREA_FRACTIONS, evaluate
from lib.tables import format_table

GRAPH_SIZE = 0.064
K_VALUES = (2, 3, 5, 8)

HEADERS = (
    "query area",
    "connectivity",
    "rel.err (median)",
    "miss",
    "edges accessed (mean)",
    "walls / |E(G)|",
)


def bench_fig14ab_knn_error_and_edges(benchmark):
    p = pipeline()
    m = p.budget_for_fraction(GRAPH_SIZE)
    total_edges = p.domain.sensing_edge_count

    configurations = [("triangulation", 0)] + [("knn", k) for k in K_VALUES]
    rows = []
    for fraction in STANDARD_AREA_FRACTIONS[:3]:  # small query regime
        queries = p.standard_queries(fraction, n=N_QUERIES)
        for connectivity, k in configurations:
            network = p.network(
                "quadtree", m, seed=1, connectivity=connectivity, k=k or 5
            )
            report = evaluate(p, p.engine(network).execute, queries)
            label = "triangulation" if connectivity == "triangulation" else f"knn k={k}"
            rows.append(
                [
                    f"{fraction:.2%}",
                    label,
                    report.error.median,
                    report.miss_rate,
                    report.edges_accessed.mean,
                    len(network.walls) / total_edges,
                ]
            )
    emit(
        "fig14ab",
        f"Fig 14a/b: k-NN vs triangulation (QuadTree, size {GRAPH_SIZE:.1%})",
        format_table(HEADERS, rows),
    )

    network = p.network("quadtree", m, seed=1, connectivity="knn", k=5)
    engine = p.engine(network)
    queries = p.standard_queries(STANDARD_AREA_FRACTIONS[1], n=N_QUERIES)
    benchmark.pedantic(
        lambda: [engine.execute(q) for q in queries],
        rounds=3,
        iterations=1,
    )

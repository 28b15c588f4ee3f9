"""Dead-space experiment (§3.1.1): axis-aligned decomposition vs
sensor-placement-based planar subdivision.

The paper's core motivation: axis-aligned partitions (grids, kd-trees)
"consider the spatial distribution of the entire data rather than the
distribution of sensors", generating dead space and excess
communication.  This bench pits grid and kd decompositions against the
QuadTree-sampled planar graph at matched wall budgets and reports
error, misses and communication per query.
"""

from __future__ import annotations

from _common import N_QUERIES, emit, pipeline
from lib.axis_aligned import (
    calibrate_grid_to_walls,
    grid_decomposition_network,
    kd_decomposition_network,
)
from lib.harness import FIXED_QUERY_AREA, evaluate
from lib.tables import format_table

SIZES = (0.064, 0.256)

HEADERS = (
    "wall budget",
    "configuration",
    "walls",
    "rel.err (median)",
    "miss",
    "edges/query",
    "nodes/query",
)


def bench_dead_space_decompositions(benchmark):
    p = pipeline()
    queries = p.standard_queries(FIXED_QUERY_AREA, n=N_QUERIES)
    rows = []
    for size in SIZES:
        m = p.budget_for_fraction(size)
        planar = p.network("quadtree", m, seed=1)
        target_walls = len(planar.walls)

        rows_for_size = [("planar sampled (quadtree)", planar)]
        grid_shape = calibrate_grid_to_walls(p.domain, target_walls)
        grid_net = grid_decomposition_network(p.domain, *grid_shape)
        rows_for_size.append(
            (f"grid decomposition {grid_shape[0]}x{grid_shape[1]}", grid_net)
        )
        kd_net = kd_decomposition_network(
            p.domain, leaves=max(planar.region_count, 2)
        )
        rows_for_size.append(("kd decomposition", kd_net))

        for label, network in rows_for_size:
            form = p.form(network)
            engine = p.engine(network, store=form)
            report = evaluate(p, engine.execute, queries, label=label)
            rows.append(
                [
                    f"~{target_walls} ({size:.1%})",
                    label,
                    len(network.walls),
                    report.error.median,
                    report.miss_rate,
                    report.edges_accessed.mean,
                    report.nodes_accessed.mean,
                ]
            )
    emit(
        "dead_space",
        "Dead-space experiment (§3.1.1): axis-aligned vs planar sampled",
        format_table(HEADERS, rows),
    )

    m = p.budget_for_fraction(0.064)
    engine = p.engine(p.network("quadtree", m, seed=1))
    benchmark.pedantic(
        lambda: [engine.execute(q) for q in queries],
        rounds=3,
        iterations=1,
    )

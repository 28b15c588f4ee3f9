"""Sensor placement planning: comparing selection strategies.

A city planner has budget for sensors on a fraction of city blocks and
wants to know which placement strategy to deploy — and how accuracy
degrades as the budget shrinks.  This example deploys every selector
the framework accepts at three budgets on one city and one day of
traffic, answers the same battery of range counts on each deployment
and prints accuracy (against the exact count on the full sensing
graph), misses and communication.

Run:  python examples/sensor_placement_planning.py
"""

from __future__ import annotations

from statistics import mean, median

import numpy as np

from repro import FrameworkConfig, InNetworkFramework
from repro.evaluation import (
    QueryWorkloadConfig,
    generate_queries,
    relative_error,
)
from repro.mobility import organic_city
from repro.trajectories import WorkloadConfig, generate_workload

BUDGET_FRACTIONS = (0.064, 0.128, 0.256)
HEADERS = (
    "budget", "selector", "sensors", "walls", "regions",
    "rel.err", "miss", "nodes/query",
)


def main() -> None:
    road = organic_city(blocks=400, rng=np.random.default_rng(3))
    framework = InNetworkFramework.from_road_graph(road)
    domain = framework.domain
    print(f"Planning domain: {domain.block_count} candidate blocks, "
          f"{domain.junction_count} junctions\n")

    workload = generate_workload(
        domain, WorkloadConfig(n_trips=4000, horizon_days=1.0, seed=5)
    )
    framework.ingest_trips(workload.trips)

    # The battery doubles as the query history the submodular selector
    # plans for (the paper's "historical data").
    queries = generate_queries(
        domain,
        workload.horizon,
        QueryWorkloadConfig(n_queries=15, area_fraction=0.0864, seed=13),
    )
    for query in queries:
        framework.record_query_region(query.box)
    exact = [framework.query_exact(q.box, q.t1, q.t2) for q in queries]

    rows = []
    for fraction in BUDGET_FRACTIONS:
        budget = max(int(round(fraction * domain.block_count)), 2)
        for selector in FrameworkConfig._SELECTORS:
            network = framework.deploy(
                FrameworkConfig(selector=selector, budget=budget, seed=1)
            )
            errors, nodes, misses = [], [], 0
            for query, reference in zip(queries, exact):
                result = framework.query(query.box, query.t1, query.t2)
                if result.missed:
                    misses += 1
                    continue
                nodes.append(result.nodes_accessed)
                error = relative_error(reference.value, result.value)
                if error is not None:
                    errors.append(error)
            rows.append((
                f"{fraction:.1%}",
                selector,
                str(len(network.sensors)),
                str(len(network.walls)),
                str(network.region_count),
                f"{median(errors):.4f}" if errors else "n/a",
                f"{misses / len(queries):.4f}",
                f"{mean(nodes):.4f}" if nodes else "n/a",
            ))

    widths = [
        max(len(row[col]) for row in [HEADERS, *rows])
        for col in range(len(HEADERS))
    ]
    for row in [HEADERS, tuple("-" * w for w in widths), *rows]:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))

    print(
        "\nReading the table: every strategy improves as the budget "
        "grows (Figs. 11a/12a\nof the paper).  Every budget here is a "
        "number of communication *sensors*\n(FrameworkConfig.budget, "
        "shown as a share of the candidate blocks), the\nsubmodular "
        "selector's too.  At an equal sensor budget the submodular\nplan spends its sensors on the walls of the "
        "historical regions only, so it\nmonitors the fewest walls; "
        "the figure benchmarks instead give it an *edge*\nbudget (as "
        "many walls as the quadtree network of that sensor count)."
    )


if __name__ == "__main__":
    main()

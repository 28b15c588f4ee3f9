"""Ablation: communication regimes and dispatch strategies.

Quantifies the paper's §3.1 motivation and §4.6 design choice:

1. update energy — continuous centralized sync vs in-network local
   aggregation, across sampled-graph sizes;
2. query dispatch — server fan-out vs perimeter walk (the two §4.6
   strategies), message and hop counts per query.
"""

from __future__ import annotations

import numpy as np

from _common import N_QUERIES, emit, pipeline
from lib.energy import EnergyModel
from lib.harness import FIXED_QUERY_AREA
from lib.tables import format_table
from repro.network import NetworkSimulator

SIZES = (0.064, 0.256)

ENERGY_HEADERS = (
    "graph size",
    "detected events",
    "centralized energy",
    "in-network energy",
    "saving",
)
DISPATCH_HEADERS = (
    "strategy",
    "mean sensors",
    "mean messages",
    "mean hops",
)


def bench_ablation_network_regimes(benchmark):
    p = pipeline()

    # 1. Update-energy comparison.
    energy_rows = []
    for size in SIZES:
        m = p.budget_for_fraction(size)
        network = p.network("quadtree", m, seed=1)
        observed = network.observed_events(p.events)
        model = EnergyModel(network)
        central = model.centralized_updates(observed)
        local = model.in_network_updates(observed)
        energy_rows.append(
            [
                f"{size:.1%}",
                len(observed),
                central.update_energy,
                local.update_energy,
                f"{1 - local.update_energy / central.update_energy:.1%}",
            ]
        )

    # 2. Dispatch strategies over real query perimeters.
    m = p.budget_for_fraction(0.064)
    network = p.network("quadtree", m, seed=1)
    engine = p.engine(network)
    simulator = NetworkSimulator(network)
    queries = p.standard_queries(FIXED_QUERY_AREA, n=N_QUERIES)
    stats = {"server_fanout": [], "perimeter_walk": []}
    for query in queries:
        result = engine.execute(query)
        if result.missed:
            continue
        boundary = network.region_boundary(result.regions)
        sensors = sorted(network.sensors_for_boundary(boundary))
        if not sensors:
            continue
        for strategy in stats:
            report = simulator.dispatch(sensors, strategy=strategy)
            stats[strategy].append(
                (report.sensors_contacted, report.messages, report.hops)
            )
    dispatch_rows = []
    for strategy, samples in stats.items():
        array = np.array(samples, dtype=float)
        dispatch_rows.append(
            [
                strategy,
                float(array[:, 0].mean()),
                float(array[:, 1].mean()),
                float(array[:, 2].mean()),
            ]
        )

    emit(
        "ablation_network",
        "Ablation: energy regimes (§3.1) and dispatch strategies (§4.6)",
        format_table(ENERGY_HEADERS, energy_rows)
        + "\n\n"
        + format_table(DISPATCH_HEADERS, dispatch_rows),
    )

    benchmark.pedantic(
        lambda: [engine.execute(q) for q in queries],
        rounds=3,
        iterations=1,
    )

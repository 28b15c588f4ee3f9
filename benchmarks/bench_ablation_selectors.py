"""Ablations on design choices called out in DESIGN.md:

1. Selection-seed sensitivity: how much does selector randomness move
   the error at a fixed budget? (The paper repeats runs 50x; this
   quantifies why.)
2. Systematic pick rule: closest-to-centre vs random-in-cell.
3. Static evaluation rule: end-of-interval vs start vs min.
"""

from __future__ import annotations

import numpy as np

from _common import N_QUERIES, emit, pipeline
from lib.harness import FIXED_QUERY_AREA, evaluate
from lib.tables import format_table
from repro.query import QueryEngine
from repro.selection import SensorCandidates, SystematicSelector
from repro.sampling import sampled_network

GRAPH_SIZE = 0.128


def bench_ablation_selectors(benchmark):
    p = pipeline()
    queries = p.standard_queries(FIXED_QUERY_AREA, n=N_QUERIES)
    m = p.budget_for_fraction(GRAPH_SIZE)

    # 1. Seed sensitivity.
    rows = []
    for method in ("uniform", "quadtree"):
        medians = []
        for seed in range(5):
            report = evaluate(
                p, p.engine(p.network(method, m, seed=seed)).execute, queries
            )
            if report.error.count:
                medians.append(report.error.median)
        rows.append(
            [
                method,
                float(np.mean(medians)),
                float(np.std(medians)),
                float(np.min(medians)),
                float(np.max(medians)),
            ]
        )
    seed_table = format_table(
        ("selector", "mean err", "std", "min", "max"), rows
    )

    # 2. Systematic pick rule.
    candidates = SensorCandidates.from_domain(p.domain)
    rows = []
    for pick in ("center", "random"):
        chosen = SystematicSelector(pick=pick).select(
            candidates, m, np.random.default_rng(1)
        )
        network = sampled_network(p.domain, chosen, name=f"sys-{pick}")
        p.cache_form(network, network.build_form(p.event_columns))
        report = evaluate(p, p.engine(network).execute, queries)
        rows.append([pick, report.error.median, report.miss_rate])
    pick_table = format_table(("pick rule", "rel.err", "miss"), rows)

    # 3. Static evaluation rule.
    network = p.network("quadtree", m, seed=1)
    form = p.form(network)
    rows = []
    for mode in ("end", "start", "min"):
        engine = QueryEngine(network, form, static_eval=mode)
        report = evaluate(p, engine.execute, queries)
        rows.append([mode, report.error.median])
    eval_table = format_table(("static eval", "rel.err"), rows)

    emit(
        "ablation",
        "Ablations: seed sensitivity / systematic pick rule / static eval",
        seed_table + "\n\n" + pick_table + "\n\n" + eval_table,
    )

    engine = p.engine(p.network("quadtree", m, seed=1))
    benchmark.pedantic(
        lambda: [engine.execute(q) for q in queries],
        rounds=3,
        iterations=1,
    )

"""Figure 11c: communication cost (nodes accessed) vs query size.

Paper shape: sampled graphs (shown at 6.4% and 51.2%) contact a
near-constant / logarithmic number of communication sensors regardless
of the query area, while the unsampled graph and the baseline flood
every sensor in the region — node accesses linear in the query area.

The per-configuration internals (resolved junctions |R|, boundary-chain
length |dR|) are read off the engine's results — every
:class:`repro.query.QueryResult` carries what its execution measured —
not re-derived from the region geometry.
"""

from __future__ import annotations

from _common import N_QUERIES, emit, pipeline
from lib.harness import STANDARD_AREA_FRACTIONS, evaluate
from lib.tables import format_table
from repro.query import QueryEngine

SAMPLED_SIZES = (0.064, 0.512)

HEADERS = (
    "query area",
    "configuration",
    "nodes accessed (mean)",
    "junctions |R|",
    "boundary |dR|",
    "miss",
)


def _engine(p, network, store=None, access_mode="perimeter") -> QueryEngine:
    """An engine over the pipeline's cached form (default bundle: no
    spans; like every component it counts into the process-global
    metrics registry, which ``emit`` snapshots into the figure's JSON
    record)."""
    return QueryEngine(
        network,
        store if store is not None else p.form(network),
        access_mode=access_mode,
    )


def _measured_row(label, fraction, engine, queries):
    """One table row from the engine's measured per-query records."""
    results = engine.execute_batch(queries)
    answered = [r for r in results if not r.missed]
    misses = len(results) - len(answered)
    nodes = _mean([r.nodes_accessed for r in answered])
    junctions = _mean([r.junction_count for r in answered])
    boundary = _mean([r.boundary_length for r in answered])
    return [
        f"{fraction:.2%}",
        label,
        nodes,
        junctions,
        boundary,
        misses / max(len(results), 1),
    ]


def _mean(values):
    return sum(values) / len(values) if values else float("nan")


def bench_fig11c_nodes_accessed(benchmark):
    p = pipeline()
    rows = []
    for fraction in STANDARD_AREA_FRACTIONS:
        queries = p.standard_queries(fraction, n=N_QUERIES)
        for size in SAMPLED_SIZES:
            m = p.budget_for_fraction(size)
            engine = _engine(p, p.network("quadtree", m, seed=1))
            rows.append(
                _measured_row(f"sampled {size:.1%}", fraction, engine, queries)
            )
        # Unsampled graph: flood accounting from the exact engine.
        exact = _engine(p, p.full, store=p.full_form, access_mode="flood")
        rows.append(_measured_row("unsampled G", fraction, exact, queries))
        # The Euler-histogram baseline measures no internals.
        baseline = p.baseline_for_fraction(0.512, seed=1)
        report = evaluate(p, baseline.execute, queries)
        rows.append(
            [
                f"{fraction:.2%}",
                "baseline 51.2%",
                report.nodes_accessed.mean,
                float("nan"),
                float("nan"),
                report.miss_rate,
            ]
        )
    emit(
        "fig11c",
        "Fig 11c: nodes accessed vs query size",
        format_table(HEADERS, rows),
        config=p.config,
    )

    queries = p.standard_queries(STANDARD_AREA_FRACTIONS[-1], n=N_QUERIES)
    m = p.budget_for_fraction(0.064)
    engine = p.engine(p.network("quadtree", m, seed=1))
    benchmark.pedantic(
        lambda: [engine.execute(q) for q in queries],
        rounds=3,
        iterations=1,
    )

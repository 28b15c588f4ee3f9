"""Figure 11d: query execution time vs query size.

Paper shape: time grows with the query area for both configurations
(larger perimeters mean more aggregation), but the sampled graph is
consistently faster with a shallower slope than the unsampled graph.

Times are the engine's own measured per-query ``elapsed`` plus the
``integrate`` stage of its record (``QueryResult.stage_s``) — not an
outer wall-clock loop that would fold Python dispatch overhead into
the series.  ``execute()`` (the unbatched path), on a fresh engine per
repeat — an engine plans each (box, bound) pair once, then reads it
from its plan table — is used so every query pays its full resolution
cost, comparable across configurations.

The sampled configuration is measured twice: with the reference
python planner (the paper-faithful per-query resolution) and with the
compiled CSR planner, so the figure also shows how much of the gap to
the unsampled graph is pure resolution overhead.
"""

from __future__ import annotations

from _common import N_QUERIES, emit, pipeline
from lib.harness import STANDARD_AREA_FRACTIONS
from lib.tables import format_table
from repro.query import QueryEngine

SAMPLED_SIZE = 0.064

HEADERS = (
    "query area",
    "configuration",
    "mean time (ms)",
    "integrate (ms)",
    "speedup vs G",
)

def _measured(make_engine, queries, repeats: int = 5):
    """Mean measured (elapsed, integrate-phase) seconds per query.  Each
    repeat runs on a fresh engine (construction is O(1)), so no repeat
    is planned from the previous one's plan table."""
    elapsed = []
    integrate = []
    for _ in range(repeats):
        engine = make_engine()
        for query in queries:
            result = engine.execute(query)
            if result.missed:
                continue
            elapsed.append(result.elapsed)
            integrate.append(result.stage_s["integrate"])
    n = max(len(elapsed), 1)
    return sum(elapsed) / n, sum(integrate) / n


def bench_fig11d_query_time(benchmark):
    p = pipeline()
    m = p.budget_for_fraction(SAMPLED_SIZE)
    sampled_network = p.network("quadtree", m, seed=1)
    sampled_form = p.form(sampled_network)
    def sampled_engine():
        return QueryEngine(sampled_network, sampled_form, planner="python")

    def compiled_engine():
        return QueryEngine(sampled_network, sampled_form)

    # The unsampled reference keeps the python planner so the python
    # rows reproduce the paper-faithful comparison; the compiled row's
    # speedup column then shows the combined sampling + planner win.
    def exact_engine():
        return QueryEngine(
            p.full, p.full_form, access_mode="flood", planner="python"
        )

    rows = []
    for fraction in STANDARD_AREA_FRACTIONS:
        queries = p.standard_queries(fraction, n=N_QUERIES)
        sampled_time, sampled_integrate = _measured(sampled_engine, queries)
        compiled_time, compiled_integrate = _measured(
            compiled_engine, queries
        )
        exact_time, exact_integrate = _measured(exact_engine, queries)
        rows.append(
            [
                f"{fraction:.2%}",
                f"sampled {SAMPLED_SIZE:.1%} (python)",
                sampled_time * 1000,
                sampled_integrate * 1000,
                exact_time / sampled_time if sampled_time else float("nan"),
            ]
        )
        rows.append(
            [
                f"{fraction:.2%}",
                f"sampled {SAMPLED_SIZE:.1%} (compiled)",
                compiled_time * 1000,
                compiled_integrate * 1000,
                exact_time / compiled_time
                if compiled_time
                else float("nan"),
            ]
        )
        rows.append(
            [
                f"{fraction:.2%}",
                "unsampled G",
                exact_time * 1000,
                exact_integrate * 1000,
                1.0,
            ]
        )
    emit(
        "fig11d",
        "Fig 11d: query execution time vs query size",
        format_table(HEADERS, rows),
        config=p.config,
    )

    queries = p.standard_queries(STANDARD_AREA_FRACTIONS[2], n=N_QUERIES)

    def cold_battery():
        engine = compiled_engine()
        return [engine.execute(q) for q in queries]

    benchmark.pedantic(cold_battery, rounds=5, iterations=1)

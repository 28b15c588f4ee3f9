"""Related-work comparison: FM-sketch distinct counting ([36]).

Tao et al.'s sketches answer a query class the paper's privacy-aware
forms deliberately do not — *distinct objects ever present in R during
[t1, t2]* — at the price of hashing persistent object identifiers.
This bench quantifies that trade on our workload:

- sketch estimate vs exact distinct-visitor ground truth (accuracy of
  the identity-based approach);
- the framework's static count at the window end (what the
  privacy-preserving system answers instead) as context;
- storage of the sketch grid.
"""

from __future__ import annotations

import numpy as np

from _common import emit, pipeline
from lib.harness import FIXED_QUERY_AREA
from lib.sketches import SketchBaseline
from lib.tables import format_table
from repro.trajectories import distinct_visitors

N_TRIPS = 3000
HEADERS = (
    "query",
    "distinct truth",
    "sketch estimate",
    "sketch rel.err",
    "framework static@t2",
)


def bench_related_work_sketches(benchmark):
    p = pipeline()
    trips = p.workload.trips[:N_TRIPS]
    baseline = SketchBaseline(
        p.domain, horizon=p.horizon, time_bins=24, planes=32
    )
    baseline.ingest_trips(trips)

    # Framework reference restricted to the same trip subset.
    from repro.query import QueryEngine
    from repro.sampling import full_network
    from repro.trajectories import EventColumns, all_events

    events = all_events(p.domain, trips)
    full = full_network(p.domain)
    form = full.build_form(EventColumns.from_events(p.domain, events))
    engine = QueryEngine(full, form)

    rows = []
    errors = []
    queries = p.standard_queries(FIXED_QUERY_AREA, n=10)
    for index, query in enumerate(queries):
        region = p.domain.junctions_in_bbox(query.box)
        truth = distinct_visitors(trips, region, query.t1, query.t2)
        estimate = baseline.distinct_count(query.box, query.t1, query.t2)
        static = engine.execute(query).value
        error = abs(estimate - truth) / truth if truth else float("nan")
        if truth:
            errors.append(error)
        rows.append([f"q{index}", truth, round(estimate, 1),
                     error, static])
    summary = [
        ["median sketch rel.err", float(np.median(errors))],
        ["sketch storage (bytes)", baseline.storage_bytes],
        ["sketches held", baseline.sketch_count],
        ["note", "sketches hash object identities; forms never do"],
    ]
    emit(
        "related_sketches",
        "Related work [36]: FM-sketch distinct counts vs the framework",
        format_table(HEADERS, rows)
        + "\n"
        + format_table(("metric", "value"), summary),
    )

    query = queries[0]
    benchmark.pedantic(
        lambda: baseline.distinct_count(query.box, query.t1, query.t2),
        rounds=3,
        iterations=1,
    )

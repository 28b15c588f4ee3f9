"""Figure 11e: storage cost CDF — exact timestamps vs regression models.

Paper shape: the exact method's per-edge storage follows a heavy-tailed
CDF (most edges small, a tail of busy edges with hundreds of
timestamps), while the learned store is a constant number of scalars
per edge regardless of traffic: ``n_edges x model_size x 2``.

The succinct-tier extension plots the storage-vs-error Pareto curve
across the whole store spectrum: plain CSR and the compressed form sit
at error 0 (the compressed exact path is field-identical), the sketch
tiers trade bytes for a measured worst-case count bound, and the
learned store anchors the small-but-unbounded end.
"""

from __future__ import annotations

import numpy as np

from _common import dense_pipeline, emit
from lib.tables import format_table
from repro.forms import CompiledTrackingForm, CompressedTrackingForm
from repro.forms.sketch import EdgeCountSketch
from repro.models import ModeledCountStore, PiecewiseLinearModel

SAMPLED_SIZE = 0.064

HEADERS = (
    "per-edge scalars (<=)",
    "exact CDF",
    "learned CDF",
)


def bench_fig11e_storage_cdf(benchmark):
    p = dense_pipeline()
    m = p.budget_for_fraction(SAMPLED_SIZE)
    network = p.network("quadtree", m, seed=1)
    form = p.form(network)
    store = ModeledCountStore.fit(form, PiecewiseLinearModel)

    exact_profile = np.array(form.storage_profile())
    learned_profile = np.array(store.storage_profile())
    thresholds = [8, 16, 32, 64, 128, 256, 512, 1024, 4096]
    rows = []
    for threshold in thresholds:
        rows.append(
            [
                threshold,
                float(np.mean(exact_profile <= threshold)),
                float(np.mean(learned_profile <= threshold)),
            ]
        )
    summary = [
        ["total scalars", int(exact_profile.sum()), int(learned_profile.sum())],
        [
            "max per edge",
            int(exact_profile.max()),
            int(learned_profile.max()),
        ],
        [
            "storage reduction",
            "-",
            f"{1 - learned_profile.sum() / exact_profile.sum():.2%}",
        ],
    ]
    emit(
        "fig11e",
        f"Fig 11e: per-edge storage CDF (graph size {SAMPLED_SIZE:.1%})",
        format_table(HEADERS, rows)
        + "\n"
        + format_table(("metric", "exact", "learned"), summary),
    )

    benchmark.pedantic(
        lambda: ModeledCountStore.fit(form, PiecewiseLinearModel),
        rounds=3,
        iterations=1,
    )


def bench_fig11e_storage_error_pareto(benchmark):
    """Succinct-tier extension: bytes vs worst-case count error.

    One row per store tier over the same sampled deployment; the
    sketch rows carry the *measured* mean/max error bound over the
    touched bins (the bound every served query would report through
    ``QueryDegradation``), so the table is directly the Pareto front
    EXPERIMENTS.md plots.
    """
    p = dense_pipeline()
    m = p.budget_for_fraction(SAMPLED_SIZE)
    network = p.network("quadtree", m, seed=1)
    observed = network.observed_columns(p.event_columns)
    plain = CompiledTrackingForm(
        observed.interner, observed.edge_id, observed.direction, observed.t
    )
    compressed = CompressedTrackingForm(
        observed.interner,
        observed.edge_id,
        observed.direction,
        observed.t,
        tick_bits=0,
    )
    plain_bytes = plain.storage_report()["total_bytes"]
    rows = [
        ["plain CSR", plain_bytes, "1.00x", 0.0, 0.0],
        [
            "compressed",
            compressed.storage_report()["total_bytes"],
            f"{plain_bytes / compressed.storage_report()['total_bytes']:.2f}x",
            0.0,
            0.0,
        ],
    ]
    for bins in (16, 64, 256, 1024):
        sketch = EdgeCountSketch.from_columns(observed, bins=bins)
        activity = sketch.activity
        nbytes = sketch.storage_report()["total_bytes"]
        rows.append(
            [
                f"sketch b={bins}",
                nbytes,
                f"{plain_bytes / max(nbytes, 1):.2f}x",
                float(activity.mean()) if len(activity) else 0.0,
                float(activity.max()) if len(activity) else 0.0,
            ]
        )
    emit(
        "fig11e_pareto",
        "Fig 11e extension: storage vs worst-case count error "
        f"(graph size {SAMPLED_SIZE:.1%})",
        format_table(
            ("tier", "bytes", "reduction", "mean bound", "max bound"),
            rows,
        ),
    )

    benchmark.pedantic(
        lambda: EdgeCountSketch.from_columns(observed, bins=64),
        rounds=3,
        iterations=1,
    )

"""Shared infrastructure for the figure benchmarks.

Every ``bench_fig*.py`` file reproduces one figure of the paper's
evaluation (§5): it sweeps that figure's x-axis over the shared cached
pipeline, prints the series the paper plots (median with 25th/75th
percentile bands, §5.1.1), persists the table under
``benchmarks/results/`` and registers one representative timing with
pytest-benchmark.

Output goes through :func:`emit`, which writes to the real stdout so
the tables appear even under pytest's capture.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence

from lib.figplot import LineChart
from lib.harness import (
    STANDARD_SIZE_FRACTIONS,
    EvalReport,
    Pipeline,
    evaluate,
    get_pipeline,
)
from repro.core import FrameworkConfig
from repro.evaluation import DEFAULT_CONFIG, PipelineConfig
from repro.obs import get_registry
from repro.query import RangeQuery

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Schema version of the per-figure machine-readable records.
RESULT_SCHEMA = 1

#: Selectors compared in the multi-method figures: every selector a
#: deployment accepts, in its order.
METHODS = FrameworkConfig._SELECTORS

#: Seeds used to repeat randomised selections (the paper repeats 50x;
#: two seeds keep the offline run tractable while still averaging out
#: selection luck).
SELECTION_SEEDS = (1, 2)

#: Queries evaluated per configuration (first 20 = submodular history).
N_QUERIES = 20


def pipeline() -> Pipeline:
    """The shared default-scale pipeline (built once per session)."""
    return get_pipeline(DEFAULT_CONFIG)


#: Denser workload for the storage / learned-model benches: per-edge
#: event streams approach the paper's scale (thousands of events), so
#: constant-size models amortise the way Figs. 11e/14c/14d assume.
DENSE_CONFIG = dataclasses.replace(DEFAULT_CONFIG, n_trips=24_000)


def dense_pipeline() -> Pipeline:
    """Pipeline with the dense workload (built once per session)."""
    return get_pipeline(DENSE_CONFIG)


def emit(
    name: str,
    title: str,
    body: str,
    series: Optional[dict] = None,
    config: Optional[PipelineConfig] = None,
) -> None:
    """Print a result table to the real stdout and persist it.

    Persists two artifacts under ``benchmarks/results/``: the plain
    table (``{name}.txt``, unchanged) and one machine-readable JSON
    record (``{name}.json``) carrying the pipeline config, any chart
    series, a snapshot of the process-global metrics registry and the
    git revision — so the perf trajectory is diffable across PRs.
    """
    text = f"\n=== {title} ===\n{body}\n"
    sys.__stdout__.write(text)
    sys.__stdout__.flush()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    record = {
        "schema": RESULT_SCHEMA,
        "figure": name,
        "title": title,
        "config": dataclasses.asdict(config or DEFAULT_CONFIG),
        "series": _jsonable(series) if series else None,
        "metrics": _jsonable(get_registry().snapshot()),
        "git_rev": _git_rev(),
    }
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )


def _git_rev() -> Optional[str]:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except Exception:
        return None


def _jsonable(value):
    """Recursively replace non-finite floats so the JSON stays strict."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def sweep_methods_over_sizes(
    p: Pipeline,
    queries: Sequence[RangeQuery],
    size_fractions: Iterable[float] = STANDARD_SIZE_FRACTIONS,
    methods: Sequence[str] = METHODS,
    seeds: Sequence[int] = SELECTION_SEEDS,
    include_baseline: bool = True,
):
    """Rows of ``[size, method, err_median, err_p25, err_p75, miss]``
    plus raw per-method ``(fraction, median error)`` chart series."""
    rows: List[List[object]] = []
    series: dict = {}
    for fraction in size_fractions:
        m = p.budget_for_fraction(fraction)
        for method in methods:
            reports = [
                evaluate(
                    p,
                    p.engine(p.network(method, m, seed=seed)).execute,
                    queries,
                    label=method,
                )
                for seed in (seeds if method != "submodular" else seeds[:1])
            ]
            row = _error_row(fraction, method, reports)
            rows.append(row)
            series.setdefault(method, []).append((fraction, row[2]))
        if include_baseline:
            reports = [
                evaluate(
                    p,
                    p.baseline_for_fraction(fraction, seed=seed).execute,
                    queries,
                    label="baseline",
                )
                for seed in seeds
            ]
            row = _error_row(fraction, "baseline", reports)
            rows.append(row)
            series.setdefault("baseline", []).append((fraction, row[2]))
    return rows, series


def emit_chart(name: str, title: str, series: dict,
               x_label: str = "sampled graph size",
               y_label: str = "relative error (median)") -> None:
    """Render sweep series as an SVG line chart under results/."""
    chart = LineChart(title=title, x_label=x_label, y_label=y_label,
                      x_log=True)
    for method, points in series.items():
        xs = [x for x, y in points]
        ys = [y for x, y in points]
        chart.add_series(method, xs, ys)
    RESULTS_DIR.mkdir(exist_ok=True)
    chart.render(RESULTS_DIR / f"{name}.svg")


def _error_row(
    fraction: float, method: str, reports: Sequence[EvalReport]
) -> List[object]:
    medians = [r.error.median for r in reports if r.error.count]
    p25 = [r.error.p25 for r in reports if r.error.count]
    p75 = [r.error.p75 for r in reports if r.error.count]
    miss = sum(r.miss_rate for r in reports) / len(reports)
    return [
        f"{fraction:.3%}",
        method,
        _mean(medians),
        _mean(p25),
        _mean(p75),
        miss,
    ]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


ERROR_HEADERS = (
    "size",
    "method",
    "rel.err (median)",
    "p25",
    "p75",
    "miss rate",
)

"""Compare two sets of benchmark results: the A/A tool and, later, the
parent-vs-change tool.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py results/baseline.json

A result file holds one result set as written by ``run.py --out`` or a
list of them (several runs of a seed make quartiles meaningful); a
single file with both sides under ``"a"`` and ``"b"`` also works.
Prints one row per workload x seed x end-to-end metric with both
medians, quartiles, the bound from ``BENCHMARK.json`` and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  either side's run-to-run spread (IQR / median) exceeds
                the bound, or is unknown because the side has fewer than
                four runs of that seed and B's median is worse by more
                than the bound: the medians decide nothing -- unless
                every run of B reads better than every run of A

Metrics that are pure functions of the seed (storage, error, sensors,
answered share) must repeat exactly between runs of the same seed: any
worsening, or two values on side A, is ``regressed``, whatever the
bound.  Exits non-zero on any ``regressed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

#: End-to-end metrics that depend on the inputs only, not on the clock.
EXACT = (
    "store_bytes_per_event",
    "rel_error_median",
    "sensor_access_reduction",
    "answered_share",
)

Values = Dict[Tuple[str, int, str], List[float]]


def load_sets(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        data = json.load(handle)
    return data if isinstance(data, list) else [data]


def collect(sets: Sequence[Dict[str, Any]]) -> Values:
    """(workload, seed, metric) -> values over the untraced runs."""
    values: Values = {}
    for result_set in sets:
        for workload, entry in result_set["workloads"].items():
            for metric, cell in entry["untraced"]["metrics"].items():
                values.setdefault(
                    (workload, result_set["seed"], metric), []
                ).append(cell["value"])
    return values


#: Runs of one seed a side needs before its quartiles mean anything.
MIN_RUNS = 4


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); of fewer than four values, (min, median, max)."""
    if len(values) < MIN_RUNS:
        return min(values), statistics.median(values), max(values)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    a: Sequence[float],
    b: Sequence[float],
    better: str,
    bound: float,
    exact: bool,
) -> str:
    sign = 1.0 if better == "lower" else -1.0  # worsening is positive
    if exact:
        worsened = any(sign * (value - a[0]) > 0 for value in b)
        return "regressed" if worsened or len(set(a)) > 1 else "ok"
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    spread = max(
        (a_q3 - a_q1) / abs(a_median), (b_q3 - b_q1) / abs(b_median)
    )
    if spread > bound:
        every_run_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "ok" if every_run_better else "unresolved"
    worsening = sign * (b_median - a_median) / abs(a_median)
    if worsening <= bound:
        return "ok"
    return "regressed" if min(len(a), len(b)) >= MIN_RUNS else "unresolved"


def compare(
    a_sets: Sequence[Dict[str, Any]],
    b_sets: Sequence[Dict[str, Any]],
    contract: Dict[str, Any],
) -> List[Dict[str, Any]]:
    """One row per workload x seed x end-to-end metric that both sides
    ran: inputs differ by seed, so only equal seeds are compared."""
    a_values, b_values = collect(a_sets), collect(b_sets)
    seeds = sorted({seed for _, seed, _ in a_values})
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        for seed in seeds:
            for metric in contract["end_to_end"]:
                key = (workload, seed, metric["name"])
                if key not in a_values or key not in b_values:
                    continue
                a, b = a_values[key], b_values[key]
                rows.append({
                    "workload": workload,
                    "seed": seed,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": (*quartiles(a), len(a)),
                    "b": (*quartiles(b), len(b)),
                    "bound": metric["bound"],
                    "verdict": verdict(
                        a, b, metric["better"], metric["bound"],
                        metric["name"] in EXACT,
                    ),
                })
    return rows


def render(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<16}{'seed':>5}  {'metric':<26}"
        f"{'A median [q1, q3] n':<42}{'B median [q1, q3] n':<42}"
        f"{'bound':>6}  verdict"
    ]
    for row in rows:
        cells = []
        for side in ("a", "b"):
            q1, median, q3, n = row[side]
            cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] {n}")
        lines.append(
            f"{row['workload']:<16}{row['seed']:>5}  {row['metric']:<26}"
            f"{cells[0]:<42}{cells[1]:<42}{row['bound']:>6}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    if len(argv) == 1:
        with open(argv[0]) as handle:
            both = json.load(handle)
        a_sets, b_sets = both["a"], both["b"]
    elif len(argv) == 2:
        a_sets, b_sets = load_sets(argv[0]), load_sets(argv[1])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parents[2]
    with open(root / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    rows = compare(a_sets, b_sets, contract)
    print(render(rows))
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"\n{len(rows)} rows: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Fault-degradation sweep: accuracy and messages vs failure rate.

The paper's evaluation (§5) assumes a fully live network.  This bench
quantifies what each §4.6 dispatch strategy loses when sensors crash
and messages drop: for a sweep of failure rates it reports, per
strategy, how many queries degrade, the relative count error of the
partial aggregates against the fault-free answers, whether the
reported :class:`~repro.query.QueryDegradation` error bounds contain
the true error, and the message/hop inflation caused by retries,
detours and server stitching.

Runs two ways, both writing the one ``SMALL_CONFIG`` sweep to
``benchmarks/results/fault_degradation.txt`` (so the committed table
depends only on the code, not on which command ran last):

- under pytest-benchmark with the other figure benches
  (``pytest benchmarks/bench_fault_degradation.py``);
- standalone (``python benchmarks/bench_fault_degradation.py``).
  ``--smoke`` is the CI gate: a fixed-seed small-scale sweep that
  fails unless (a) with failure rate 0 every fault-aware result is
  identical to the fault-free engine's, and (b) at 10% sensor failure
  the degraded perimeter-walk answers stay within their reported
  error bounds for >= 95% of queries.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:  # standalone invocation without PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lib.harness import FIXED_QUERY_AREA, Pipeline, get_pipeline
from lib.tables import format_table
from repro.evaluation import SMALL_CONFIG
from repro.network import FaultConfig, FaultInjector
from repro.obs import use_registry
from repro.query import QueryEngine

#: Sensor failure rates swept (message drop rate rides at rate / 2).
FAILURE_RATES = (0.0, 0.05, 0.1, 0.2, 0.3)

#: Injector seeds per rate: failure schedules are drawn per seed, so a
#: handful of seeds averages out schedule luck.
FAULT_SEEDS = (0, 1, 2, 3, 4)

STRATEGIES = ("perimeter_walk", "server_fanout")

#: CI gate: share of degraded answers whose true error must fall
#: within the reported bound at 10% sensor failure.
CONTAINMENT_FLOOR = 0.95

#: The graph-size fraction dispatched over (matches the ablation bench).
SIZE_FRACTION = 0.256

HEADERS = (
    "strategy",
    "failure rate",
    "answered",
    "degraded",
    "mean rel err",
    "bound containment",
    "msgs/query",
    "hops/query",
)


def sweep(
    p: Pipeline,
    rates=FAILURE_RATES,
    seeds=FAULT_SEEDS,
    n_queries: int = 20,
):
    """Run the sweep; returns (rows, series) for emit()."""
    network = p.network(
        "quadtree", p.budget_for_fraction(SIZE_FRACTION), seed=1
    )
    store = p.form(network)
    queries = p.standard_queries(FIXED_QUERY_AREA, n=n_queries)
    reference = {
        id(q): r
        for q, r in zip(queries, QueryEngine(network, store).execute_many(queries))
    }

    rows = []
    series: dict = {"rates": list(rates)}
    for strategy in STRATEGIES:
        err_series, msg_series, containment_series = [], [], []
        for rate in rates:
            answered = degraded = contained = 0
            rel_errors = []
            messages = hops = dispatches = 0.0
            for seed in seeds:
                with use_registry() as registry:
                    injector = FaultInjector.for_network(
                        network,
                        FaultConfig(
                            seed=seed,
                            sensor_failure_rate=rate,
                            drop_rate=rate / 2,
                        ),
                    )
                    engine = QueryEngine(
                        network,
                        store,
                        faults=injector,
                        dispatch_strategy=strategy,
                    )
                    results = engine.execute_many(queries)
                    messages += registry.value(
                        "repro_sim_messages_total", strategy=strategy
                    )
                    hops += registry.value(
                        "repro_sim_hops_total", strategy=strategy
                    )
                    dispatches += registry.value(
                        "repro_sim_dispatches_total", strategy=strategy
                    )
                for query, result in zip(queries, results):
                    base = reference[id(query)]
                    if result.missed or base.missed:
                        continue
                    answered += 1
                    error = abs(result.value - base.value)
                    rel_errors.append(error / max(abs(base.value), 1.0))
                    bound = (
                        result.degradation.error_bound
                        if result.degradation is not None
                        else 0.0
                    )
                    if result.approximate:
                        degraded += 1
                    if error <= bound or error == 0.0:
                        contained += 1
            mean_err = (
                sum(rel_errors) / len(rel_errors) if rel_errors else 0.0
            )
            containment = contained / answered if answered else 1.0
            msgs_per = messages / dispatches if dispatches else 0.0
            hops_per = hops / dispatches if dispatches else 0.0
            rows.append(
                [
                    strategy,
                    f"{rate:.0%}",
                    answered,
                    degraded,
                    f"{mean_err:.3f}",
                    f"{containment:.1%}",
                    f"{msgs_per:.1f}",
                    f"{hops_per:.1f}",
                ]
            )
            err_series.append(mean_err)
            msg_series.append(msgs_per)
            containment_series.append(containment)
        series[f"{strategy}_rel_err"] = err_series
        series[f"{strategy}_msgs_per_query"] = msg_series
        series[f"{strategy}_containment"] = containment_series
    return rows, series


# ----------------------------------------------------------------------
# CI smoke gate
# ----------------------------------------------------------------------
def smoke() -> int:
    """Fixed-seed gate: rate-0 equivalence + bound containment."""
    p = get_pipeline(SMALL_CONFIG)
    network = p.network(
        "quadtree", p.budget_for_fraction(SIZE_FRACTION), seed=1
    )
    store = p.form(network)
    queries = p.standard_queries(FIXED_QUERY_AREA, n=20)
    plain = QueryEngine(network, store).execute_many(queries)

    failures = []

    # (a) rate 0: the fault-aware path must change nothing.
    injector = FaultInjector.for_network(network, FaultConfig(seed=0))
    zero = QueryEngine(
        network, store, faults=injector
    ).execute_many(queries)
    for base, faulty in zip(plain, zero):
        same = (
            base.value == faulty.value
            and base.missed == faulty.missed
            and base.nodes_accessed == faulty.nodes_accessed
            and faulty.approximate is False
            and faulty.degradation is None
        )
        if not same:
            failures.append(
                f"rate-0 mismatch: {base.value} -> {faulty.value} "
                f"(nodes {base.nodes_accessed} -> {faulty.nodes_accessed})"
            )
            break

    # (b) 10% sensor failure: degraded answers stay inside their bound.
    answered = contained = degraded = 0
    for seed in FAULT_SEEDS:
        injector = FaultInjector.for_network(
            network,
            FaultConfig(seed=seed, sensor_failure_rate=0.1, drop_rate=0.05),
        )
        engine = QueryEngine(network, store, faults=injector)
        for base, faulty in zip(plain, engine.execute_many(queries)):
            if base.missed or faulty.missed:
                continue
            answered += 1
            error = abs(faulty.value - base.value)
            bound = (
                faulty.degradation.error_bound
                if faulty.degradation is not None
                else 0.0
            )
            if faulty.approximate:
                degraded += 1
            if error == 0.0 or error <= bound:
                contained += 1
    containment = contained / answered if answered else 1.0
    print(
        f"smoke: {answered} answered, {degraded} degraded, "
        f"containment {containment:.1%} (floor {CONTAINMENT_FLOOR:.0%})"
    )
    if answered == 0:
        failures.append("smoke sweep answered no queries")
    if containment < CONTAINMENT_FLOOR:
        failures.append(
            f"bound containment {containment:.1%} below the "
            f"{CONTAINMENT_FLOOR:.0%} floor"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="fixed-seed CI gate: rate-0 equivalence and >= 95%% bound "
        "containment at 10%% sensor failure",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    emit_sweep()
    return 0


def emit_sweep() -> Pipeline:
    """Run the ``SMALL_CONFIG`` sweep and persist its table."""
    from _common import emit

    p = get_pipeline(SMALL_CONFIG)
    rows, series = sweep(p)
    emit(
        "fault_degradation",
        "Fault degradation: accuracy and messages vs failure rate (§4.6)",
        format_table(HEADERS, rows),
        series=series,
        config=SMALL_CONFIG,
    )
    return p


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
def bench_fault_degradation(benchmark):
    p = emit_sweep()
    network = p.network(
        "quadtree", p.budget_for_fraction(SIZE_FRACTION), seed=1
    )
    store = p.form(network)
    queries = p.standard_queries(FIXED_QUERY_AREA, n=5)
    injector = FaultInjector.for_network(
        network, FaultConfig(seed=0, sensor_failure_rate=0.1, drop_rate=0.05)
    )
    engine = QueryEngine(
        network, store, faults=injector, dispatch_strategy="perimeter_walk"
    )
    benchmark.pedantic(
        lambda: engine.execute_many(queries), rounds=3, iterations=1
    )


if __name__ == "__main__":
    raise SystemExit(main())

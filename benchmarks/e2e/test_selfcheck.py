"""Selfcheck of the end-to-end benchmark at the quick scale.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only):

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Checks the benchmark, not the program: the names it prints are the
names ``BENCHMARK.json`` promises, seed-determined numbers repeat bit
for bit, a wrong answer is caught, and span self-times add up.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from e2e import cli, compare, harness, workloads  # noqa: E402
from e2e.trace import COVER, END, PARENT, START, Recorder  # noqa: E402

QUICK = workloads.SCALES["quick"]
SECONDS = 0.2
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


@pytest.fixture(scope="module")
def inputs():
    return workloads.generate_inputs(13, QUICK)


@pytest.fixture(scope="module")
def untraced(inputs):
    return {
        name: cli.untraced_run(workloads.SPECS[name], inputs, SECONDS)
        for name in WORKLOADS
    }


@pytest.fixture(scope="module")
def traced(inputs):
    return {
        name: cli.traced_run(workloads.SPECS[name], inputs, SECONDS)
        for name in WORKLOADS
    }


def test_contract_names_the_four_workloads():
    assert WORKLOADS == list(workloads.SPECS)
    names = [m["name"] for g in ("end_to_end", "per_layer") for m in CONTRACT[g]]
    assert len(names) == len(set(names))
    assert all(m["unit"] for g in ("end_to_end", "per_layer") for m in CONTRACT[g])
    assert "setup_s" in names


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_prints_exactly_the_end_to_end_metrics(untraced, name):
    run, values = untraced[name]
    assert set(values) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(value > 0 for value in values.values()), values
    assert run.ops.failed == 0 and run.ops.attempted > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_prints_exactly_the_per_layer_metrics(traced, name):
    run, _, values = traced[name]
    assert set(values) == {m["name"] for m in CONTRACT["per_layer"]}
    assert run.ops.failed == 0
    assert values["trace.coverage_pct"] >= 90.0


def test_workloads_stress_what_they_say(traced):
    hot = traced["dashboard_hot"][2]
    assert hot["forms.boundary_cache_hit_rate"] >= 0.99
    assert hot["query.sharded.batch_us_per_query"] > 0
    tiered = traced["tiered_tolerant"][2]
    assert tiered["forms.sketch.hit_share"] > 0
    assert tiered["forms.succinct.bytes_per_event"] > 0
    stream = traced["stream_live"][2]
    assert stream["stream.compactions"] >= 1
    assert stream["core.facade_overhead_us"] > 0
    assert traced["adhoc_cold"][2]["forms.sketch.hit_share"] == 0


def test_no_process_outlives_a_run(traced):
    # The sharded probe of the traced dashboard_hot run started a pool
    # worker and multiprocessing's resource tracker.
    harness.reap_children()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_world_numbers_repeat_and_traffic_differs_by_seed(inputs, untraced):
    spec = workloads.SPECS["adhoc_cold"]
    again_run, again = cli.untraced_run(spec, inputs, SECONDS)
    other_inputs = workloads.generate_inputs(29, QUICK)
    other = cli.untraced_run(spec, other_inputs, SECONDS)[1]
    first_run, first = untraced["adhoc_cold"]
    for metric in compare.EXACT:
        assert again[metric] == first[metric], metric
        # The world is the same for every seed; the traffic is not.
        assert other[metric] == first[metric], metric
    assert len(other_inputs.events) == len(inputs.events)
    assert workloads.cold_battery(
        other_inputs, "cold", 100, True
    ) != workloads.cold_battery(inputs, "cold", 100, True)
    # Counts too: every pass attempts the same operations.
    assert (
        again_run.ops.attempted / len(again_run.passes)
        == first_run.ops.attempted / len(first_run.passes)
    )
    same = workloads.generate_inputs(13, QUICK)
    assert len(same.events) == len(inputs.events)
    assert workloads.cold_battery(
        same, "cold", 100, True
    ) == workloads.cold_battery(inputs, "cold", 100, True)


def test_corrupted_answer_is_counted_as_failed(untraced):
    run = untraced["adhoc_cold"][0]
    answered = [r for r in run.quality.results if not r.missed]
    ops = workloads.Ops()
    workloads.check_reference(run.engine, answered, ops, "selfcheck")
    assert ops.failed == 0 and ops.attempted == len(answered)
    wrong = replace(answered[0], value=answered[0].value + 1)
    workloads.check_reference(run.engine, [wrong], ops, "selfcheck")
    assert ops.failed == 1
    assert ops.failed / ops.attempted > 0


def test_span_self_times_add_up(traced):
    rec = traced["tiered_tolerant"][1]
    assert len(rec.spans) > 1000
    children = [0.0] * len(rec.spans)
    for span in rec.spans:
        assert span[END] >= span[START]
        if span[PARENT] >= 0:
            children[span[PARENT]] += rec.duration(span)
    for index, span in enumerate(rec.spans):
        duration, own = rec.duration(span), rec.self_time(span)
        assert -1e-9 <= own <= duration + 1e-9
        assert own + children[index] == pytest.approx(duration, abs=1e-9)
        assert span[COVER] == pytest.approx(children[index], abs=1e-9)
    by_layer = rec.self_by_layer()
    roots = sum(rec.duration(s) for s in rec.spans if s[PARENT] < 0)
    assert sum(by_layer.values()) == pytest.approx(roots, rel=1e-6)


def test_wrap_restores_the_original_and_handles_classmethods():
    class Layer:
        @classmethod
        def build(cls, n):
            return [cls.__name__] * n

        def work(self, n):
            return self.build(n)

    rec = Recorder()
    rec.wrap(Layer, "build", "layer", measure=len)
    rec.wrap(Layer, "work", "layer", name=lambda self, n: f"layer.work{n}")
    original = Layer.__dict__["work"]
    rec.install()
    assert Layer().work(3) == ["Layer"] * 3
    rec.uninstall()
    assert Layer.__dict__["work"] is original
    assert Layer().work(1) == ["Layer"]
    assert [s[0] for s in rec.spans] == ["layer.work3", "layer.build"]
    assert rec.spans[1][PARENT] == 0 and rec.spans[1][8] == 3


def test_harness_percentiles_and_quiet_series():
    samples = list(range(1, 1001))
    assert harness.percentile(samples, 50) == 500
    assert harness.percentile(samples, 99) == 990
    assert harness.summary([1.0, 2.0, 3.0, 4.0])["median"] == 2.5
    passes = harness.timed_passes(lambda i: i, seconds=0.0, min_passes=3)
    assert passes == [0, 1, 2]
    # Per operation the lower quartile over passes; a raised operation
    # (NaN) is skipped.
    nan = float("nan")
    quiet = harness.quiet([[3.0, 1.0, nan], [2.0, 5.0, 4.0]])
    assert quiet.tolist() == [2.25, 2.0, 4.0]
    five = harness.quiet([[1.0], [2.0], [3.0], [4.0], [50.0]])
    assert five.tolist() == [2.0]
    with pytest.raises(ValueError):
        harness.quiet([[1.0, 2.0], [1.0]])


def test_compare_verdicts():
    def result_set(latency, error, seed=13):
        metrics = {
            "query_p50_us": {"value": latency, "unit": "us"},
            "rel_error_median": {"value": error, "unit": "ratio"},
        }
        return {"seed": seed, "workloads": {"adhoc_cold": {"untraced": {"metrics": metrics}}}}

    def verdicts(a, b):
        return {
            (row["seed"], row["metric"]): row["verdict"]
            for row in compare.compare(a, b, CONTRACT)
        }

    a = [result_set(latency, 0.2) for latency in (100.0, 101.0, 99.0, 100.5)]
    same = verdicts(a, [result_set(v, 0.2) for v in (102.0, 100.5, 99.5, 101.0)])
    assert same == {(13, "query_p50_us"): "ok", (13, "rel_error_median"): "ok"}
    slower = verdicts(a, [result_set(v, 0.2) for v in (150.0, 151.0, 149.0, 152.0)])
    assert slower[13, "query_p50_us"] == "regressed"
    # One run a side says nothing about the spread.
    assert verdicts(a[:1], [result_set(150.0, 0.2)])[13, "query_p50_us"] == "unresolved"
    noisy = verdicts(a, [result_set(v, 0.2) for v in (80.0, 160.0, 90.0, 150.0)])
    assert noisy[13, "query_p50_us"] == "unresolved"
    wrong = verdicts(a, [result_set(100.0, 0.2000001)])
    assert wrong[13, "rel_error_median"] == "regressed"
    # Seeds are other inputs: only equal seeds are compared.
    assert verdicts(a, [result_set(500.0, 0.9, seed=29)]) == {}

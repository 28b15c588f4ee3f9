"""Unit and integration tests for the repro.obs observability layer.

Covers the tracer (nesting, Chrome export, tree rendering), the metrics
registry (instruments, exports, global swap), logging (byte-identical
default output), provenance-carrying query execution, the batched
elapsed-time attribution fix, query EXPLAIN against the engine's own
accounting, the fault schedule's gauges, and the CLI's
``--trace``/``--metrics`` acceptance path.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import replace

import pytest

from repro.geometry import BBox
from repro.network import FaultConfig, FaultInjector
from repro.obs import (
    Instrumentation,
    MetricsRegistry,
    NULL_INSTRUMENTATION,
    NULL_TRACER,
    Tracer,
    build_explain,
    configure_logging,
    get_logger,
    get_registry,
    kv,
    set_registry,
    use_registry,
)
from repro.query import LOWER, QueryEngine, RangeQuery, TRANSIENT, UPPER
from repro.trajectories import EventColumns


def _named(tracer, name):
    return [span for span in tracer.walk() if span.name == name]


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_follows_with_blocks(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                pass
        (root,) = tracer.roots
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner.a", "inner.b"]
        assert root.duration >= sum(c.duration for c in root.children)

    def test_attributes_and_set(self):
        tracer = Tracer()
        with tracer.span("op", n=3) as span:
            span.set(result="ok")
        assert tracer.roots[0].attributes == {"n": 3, "result": "ok"}

    def test_find_and_walk(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("b"):
            pass
        assert len(_named(tracer, "b")) == 2
        assert [s.name for s in tracer.walk()] == ["a", "b", "b"]

    def test_exception_closes_dangling_spans(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                ctx = tracer.span("leaked")
                ctx.__enter__()
                raise RuntimeError("boom")
        for span in tracer.walk():
            assert span.end is not None

    def test_chrome_trace_export(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", kind="demo"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.json"
        tracer.export_chrome(path)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert [e["name"] for e in events] == ["outer", "inner"]
        outer, inner = events
        assert outer["ph"] == "X" and inner["ph"] == "X"
        assert outer["args"] == {"kind": "demo"}
        # Child interval contained in the parent's.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6

    def test_chrome_trace_coerces_attributes(self):
        tracer = Tracer()
        with tracer.span("op", ids=(1, 2), obj=object()):
            pass
        args = tracer.to_chrome_trace()["traceEvents"][0]["args"]
        assert args["ids"] == [1, 2]
        assert isinstance(args["obj"], str)

    def test_format_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", n=1):
                pass
        tree = tracer.format_tree()
        lines = tree.splitlines()
        assert lines[0].startswith("outer:")
        assert lines[1].startswith("  inner:")
        assert "[n=1]" in lines[1]

    def test_sibling_ring_evicts_oldest_and_says_so(self):
        from repro.obs.trace import SIBLING_RING

        tracer = Tracer()
        with tracer.span("deploy"):
            pass
        for i in range(SIBLING_RING + 10):
            with tracer.span("query.execute", i=i):
                with tracer.span("query.integrate"):
                    pass
        kept = _named(tracer, "query.execute")
        assert len(kept) == SIBLING_RING
        assert kept[0].attributes["i"] == 10  # the oldest went first
        assert tracer.dropped == 20  # ten roots, each with its child
        assert len(_named(tracer, "deploy")) == 1
        trace = tracer.to_chrome_trace()
        assert trace["otherData"] == {"dropped_spans": 20}
        assert len(trace["traceEvents"]) == 1 + 2 * SIBLING_RING
        assert "20 older spans dropped" in tracer.format_tree().splitlines()[-1]

    def test_sibling_ring_is_per_parent_and_per_name(self):
        from repro.obs.trace import SIBLING_RING

        tracer = Tracer()
        with tracer.span("battery"):
            for i in range(2 * SIBLING_RING):
                with tracer.span("query.execute" if i % 2 else "ingest"):
                    pass
            # Still open: nothing of this parent's own name is touched.
            assert [root.end for root in tracer.roots] == [None]
        (battery,) = tracer.roots
        assert len(battery.children) == 2 * SIBLING_RING
        assert tracer.dropped == 0
        assert battery.seen is None  # the count dies with the open span

    def test_sibling_ring_never_evicts_an_open_span(self):
        import threading

        from repro.obs.trace import SIBLING_RING

        tracer = Tracer()
        opened, release = threading.Event(), threading.Event()

        def hold():
            with tracer.span("query.execute", held=True):
                opened.set()
                release.wait(10.0)

        thread = threading.Thread(target=hold)
        thread.start()
        opened.wait(10.0)
        for _ in range(SIBLING_RING + 5):
            with tracer.span("query.execute"):
                pass
        assert tracer.roots[0].attributes == {"held": True}
        release.set()
        thread.join()
        assert len(_named(tracer, "query.execute")) == SIBLING_RING

    def test_spans_nest_per_thread(self):
        """A tracer shared across threads keeps one open-span stack per
        thread: spans opened concurrently on two threads become two
        roots, each with only its own thread's child."""
        import threading

        tracer = Tracer()
        barrier = threading.Barrier(2, timeout=10.0)

        def work(name):
            with tracer.span(name):
                barrier.wait()  # both roots open concurrently
                with tracer.span(f"{name}.child"):
                    barrier.wait()

        threads = [
            threading.Thread(target=work, args=(name,)) for name in ("t1", "t2")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(
            (root.name, [child.name for child in root.children])
            for root in tracer.roots
        ) == [("t1", ["t1.child"]), ("t2", ["t2.child"])]

    def test_double_close_does_not_unwind_open_spans(self):
        tracer = Tracer()
        keep = tracer.span("keep")
        keep.__enter__()
        victim = tracer.span("victim")
        victim.__enter__()
        victim.__exit__(None, None, None)
        # Second close of an already-closed span must be a no-op, not
        # pop "keep" off the stack.
        victim.__exit__(None, None, None)
        with tracer.span("child"):
            pass
        keep.__exit__(None, None, None)
        (root,) = tracer.roots
        assert root.name == "keep"
        assert [c.name for c in root.children] == ["victim", "child"]
        assert all(s.end is not None for s in tracer.walk())

    def test_null_tracer_is_inert(self, tmp_path):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", n=1) as span:
            span.set(more=2)
        assert list(NULL_TRACER.walk()) == []
        assert NULL_TRACER.to_chrome_trace() == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }
        assert NULL_TRACER.format_tree() == ""
        path = tmp_path / "null.json"
        NULL_TRACER.export_chrome(path)
        assert json.loads(path.read_text())["traceEvents"] == []


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_memoised_and_labelled(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", kind="x")
        a.inc()
        a.inc(2)
        assert registry.counter("c_total", kind="x") is a
        assert registry.value("c_total", kind="x") == 3
        assert registry.value("c_total", kind="y") == 0
        registry.counter("c_total", kind="y").inc(5)
        assert registry.value("c_total", kind="y") == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge(self):
        registry = MetricsRegistry()
        g = registry.gauge("g")
        g.set(10)
        g.inc(-3)
        assert registry.value("g") == 7

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("h", buckets=(1, 10, 100))
        for v in (0.5, 5, 50, 5000):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(5055.5)
        assert h.cumulative() == [
            (1, 1),
            (10, 2),
            (100, 3),
            (float("inf"), 4),
        ]

    def test_counted_observe_equals_repeated_observes(self):
        """``observe(v, n)`` — one call for a batch's shared latency —
        leaves the histogram as ``n`` single observations would: same
        buckets and count; the sum up to float rounding."""
        registry = MetricsRegistry()
        counted = registry.histogram("counted", buckets=(1e-5, 1e-4, 1e-3))
        single = registry.histogram("single", buckets=(1e-5, 1e-4, 1e-3))
        for value, n in ((3.3e-6, 997), (4.1e-5, 3), (0.25, 11), (7e-4, 0)):
            counted.observe(value, n)
            for _ in range(n):
                single.observe(value)
        assert counted.counts == single.counts
        assert counted.count == single.count == 1011
        assert counted.sum == pytest.approx(single.sum, rel=1e-12)

    def test_prometheus_nonfinite_values_round_trip(self):
        registry = MetricsRegistry()
        registry.gauge("g_inf").set(float("inf"))
        registry.gauge("g_ninf").set(float("-inf"))
        registry.gauge("g_nan").set(float("nan"))
        registry.gauge("g_float").set(2.5)
        text = registry.to_prometheus()
        # Exposition-format spellings, not Python's repr().
        assert "g_inf +Inf" in text
        assert "g_ninf -Inf" in text
        assert "g_nan NaN" in text
        assert "inf\n" not in text and " nan" not in text
        # Every sample line parses back losslessly with float().
        import math

        parsed = {}
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            parsed[name] = float(value)
        assert parsed["g_inf"] == math.inf
        assert parsed["g_ninf"] == -math.inf
        assert math.isnan(parsed["g_nan"])
        assert parsed["g_float"] == 2.5

    def test_prometheus_export(self):
        registry = MetricsRegistry()
        registry.counter("c_total", help="a counter", kind="x").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1, 2)).observe(1)
        text = registry.to_prometheus()
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{kind="x"} 2' in text
        assert "g 1.5" in text
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 1" in text
        assert "h_count 1" in text

    def test_json_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c_total", kind="x").inc()
        snap = registry.snapshot()
        assert snap["counters"] == {'c_total{kind="x"}': 1}

    def test_use_registry_swaps_and_restores(self):
        before = get_registry()
        with use_registry() as fresh:
            assert get_registry() is fresh
            get_registry().counter("inside").inc()
        assert get_registry() is before
        assert before.value("inside") == 0

    def test_set_registry_returns_previous(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------
@pytest.fixture()
def default_logging():
    """Restore default verbosity after each logging test."""
    yield
    configure_logging(0)


class TestLogging:
    def test_default_output_matches_print(self, capsys, default_logging):
        configure_logging(0)
        get_logger("t").info("hello world")
        assert capsys.readouterr().out == "hello world\n"

    def test_debug_hidden_by_default(self, capsys, default_logging):
        configure_logging(0)
        get_logger("t").debug("invisible")
        assert capsys.readouterr().out == ""

    def test_quiet_suppresses_info(self, capsys, default_logging):
        configure_logging(-1)
        log = get_logger("t")
        log.info("hidden")
        log.warning("shown")
        assert capsys.readouterr().out == "shown\n"

    def test_verbose_prefixes_records(self, capsys, default_logging):
        configure_logging(1)
        get_logger("t").debug("detail")
        assert capsys.readouterr().out == "D repro.t: detail\n"

    def test_kv_rendering(self):
        assert kv(a=1, rate=0.25, name="x") == "a=1 rate=0.25 name=x"
        assert kv(msg="two words") == "msg='two words'"


# ----------------------------------------------------------------------
# Instrumentation bundle
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_null_bundle_inactive(self):
        from dataclasses import fields

        assert not NULL_INSTRUMENTATION.tracer.enabled
        # A tracer and the one accepted-but-unread flag: nothing else.
        assert [f.name for f in fields(Instrumentation)] == [
            "tracer", "provenance",
        ]

    def test_on_builds_live_bundle(self):
        obs = Instrumentation.on()
        assert obs.tracer.enabled
        assert obs.tracer is not Instrumentation.on().tracer
        # The one accepted-but-unread parameter (benchmarks/e2e passes
        # it; see the note beside the field).
        assert Instrumentation(tracer=obs.tracer, provenance=True).tracer is (
            obs.tracer
        )


# ----------------------------------------------------------------------
# Measured internals + batched attribution (the execute_batch fix)
# ----------------------------------------------------------------------
class _SlowNetwork:
    """Delegating wrapper that makes region resolution measurably slow."""

    def __init__(self, inner, delay: float) -> None:
        self._inner = inner
        self._delay = delay

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def lower_regions(self, junctions):
        time.sleep(self._delay)
        return self._inner.lower_regions(junctions)


class TestBatchAttribution:
    DELAY = 0.05

    def _queries(self, workload, n=3):
        t2 = 0.5 * workload.horizon
        return [RangeQuery(BBox(2, 2, 8, 8), 0.0, t2) for _ in range(n)]

    def test_shared_fill_metered_separately(
        self, sampled_net, sampled_form, workload
    ):
        queries = self._queries(workload)
        with use_registry() as registry:
            engine = QueryEngine(
                _SlowNetwork(sampled_net, self.DELAY),
                sampled_form,
                instrumentation=Instrumentation.on(),
            )
            results = engine.execute_batch(queries)
        first, *rest = results
        assert not first.cache_served
        assert all(r.cache_served for r in rest)
        # The slow region fill is excluded from every per-query elapsed,
        # including the query that triggered it.
        for result in results:
            assert result.elapsed < self.DELAY
        assert first.shared_fill_s >= self.DELAY
        # One stage table a record: the routing fills it triggered and
        # its share of the one integration.
        assert set(first.stage_s) == {
            "resolve_junctions", "approximate_region", "integrate",
        }
        assert first.stage_s["approximate_region"] >= self.DELAY
        assert all(r.stage_s["approximate_region"] == 0.0 for r in rest)
        assert (
            registry.value("repro_query_batch_fill_seconds_total")
            >= self.DELAY
        )
        assert registry.value(
            "repro_query_batch_cache_total", cache="regions", outcome="fill"
        ) == 1
        assert registry.value(
            "repro_query_batch_cache_total", cache="regions", outcome="hit"
        ) == len(rest)
        for result in rest:
            assert result.cache_hits == {
                "junctions": True,
                "regions": True,
                "boundary": True,
                "sensors": True,
            }

    def test_batch_identical_to_many_under_instrumentation(
        self, sampled_net, sampled_form, workload
    ):
        t2 = 0.5 * workload.horizon
        queries = [
            RangeQuery(BBox(2, 2, 8, 8), 0.0, t2, bound=LOWER),
            RangeQuery(BBox(2, 2, 8, 8), 0.0, t2, bound=UPPER),
            RangeQuery(BBox(1, 1, 9, 9), 0.2 * t2, t2, kind=TRANSIENT),
            RangeQuery(BBox(2, 2, 8, 8), 0.0, t2, bound=LOWER),
            RangeQuery(BBox(0.01, 0.01, 0.02, 0.02), 0.0, t2),
        ]
        with use_registry():
            engine = QueryEngine(
                sampled_net,
                sampled_form,
                instrumentation=Instrumentation.on(),
            )
            batch = engine.execute_batch(queries)
            many = engine.execute_many(queries)
        assert len(batch) == len(many)
        for b, m in zip(batch, many):
            assert b.missed == m.missed
            assert b.value == m.value
            assert tuple(sorted(b.regions)) == tuple(sorted(m.regions))
            assert b.edges_accessed == m.edges_accessed
            assert b.nodes_accessed == m.nodes_accessed

    def test_execute_provenance_phases(
        self, sampled_net, sampled_form, workload
    ):
        engine = QueryEngine(
            sampled_net,
            sampled_form,
            instrumentation=Instrumentation.on(),
        )
        t2 = 0.5 * workload.horizon
        result = engine.execute(RangeQuery(BBox(2, 2, 8, 8), 0.0, t2))
        self._check_cold_record(engine, result)

    def _check_cold_record(self, engine, result):
        assert not result.missed
        assert result.planner == engine._planner.name
        assert not result.cache_served and result.cache_hits == {}
        assert result.shared_fill_s == 0.0
        assert result.junction_count > 0
        assert result.boundary_length == result.edges_accessed
        assert set(result.stage_s) == {
            "resolve_junctions",
            "approximate_region",
            "build_boundary",
            "integrate",
            "account_sensors",
        }
        assert sum(result.stage_s.values()) <= result.elapsed + 1e-6

    def test_default_engine_carries_internals(
        self, sampled_net, sampled_form, workload
    ):
        """No switch selects the internals: the default (null) bundle's
        record holds what a live one's does."""
        engine = QueryEngine(sampled_net, sampled_form)
        t2 = 0.5 * workload.horizon
        result = engine.execute(RangeQuery(BBox(2, 2, 8, 8), 0.0, t2))
        self._check_cold_record(engine, result)
        assert not hasattr(result, "provenance")


# ----------------------------------------------------------------------
# Query EXPLAIN
# ----------------------------------------------------------------------
class TestExplain:
    def _query(self, workload) -> RangeQuery:
        return RangeQuery(BBox(2, 2, 8, 8), 0.0, 0.5 * workload.horizon)

    def test_explain_matches_engine_accounting(
        self, sampled_net, sampled_form, workload
    ):
        query = self._query(workload)
        engine = QueryEngine(sampled_net, sampled_form)
        plan = engine.explain(query)
        reference = QueryEngine(sampled_net, sampled_form).execute(query)
        record = plan.record
        # The plan *is* an execution's record: equal to a plain
        # execute() in every answer field but the clock's.
        assert replace(record, elapsed=reference.elapsed) == reference
        assert record.boundary_length == reference.boundary_length
        assert record.junction_count == reference.junction_count
        assert set(record.stage_s) == set(reference.stage_s)
        doc = plan.as_dict()
        assert doc["region_ids"] == list(reference.regions)
        assert doc["sensors_accessed"] == reference.nodes_accessed
        assert doc["boundary_length"] == reference.boundary_length
        assert set(doc["stage_s"]) == set(reference.stage_s)

    def test_explain_leaves_instrumentation_unchanged(
        self, sampled_net, sampled_form, workload
    ):
        engine = QueryEngine(sampled_net, sampled_form)
        obs_before = engine.obs
        engine.explain(self._query(workload))
        assert engine.obs is obs_before
        assert not engine.obs.tracer.enabled

    def test_explain_includes_compiled_planner_stats(
        self, sampled_net, events, workload
    ):
        # Columnar events build an id-native form: the compiled planner.
        columns = EventColumns.from_events(sampled_net.domain, events)
        engine = QueryEngine(sampled_net, sampled_net.build_form(columns))
        plan = engine.explain(self._query(workload))
        assert plan.record.planner == "compiled"
        stats = plan.engine["planner_stats"]
        assert stats["sensors"] == len(sampled_net.sensors)
        assert stats["regions"] > 0 and stats["walls"] > 0
        assert "index:" in plan.format()

    def test_explain_formats_miss(self, sampled_net, sampled_form, workload):
        engine = QueryEngine(sampled_net, sampled_form)
        plan = engine.explain(
            RangeQuery(BBox(0.001, 0.001, 0.002, 0.002), 0.0, 1.0)
        )
        assert plan.record.missed
        assert "MISS" in plan.format()

    def test_explain_reports_fault_dispatch(
        self, sampled_net, sampled_form, workload
    ):
        crashed = sorted(sampled_net.sensors)[:4]
        injector = FaultInjector(
            FaultConfig(seed=3), sampled_net.sensors, crashed=crashed
        )
        with use_registry():
            engine = QueryEngine(sampled_net, sampled_form, faults=injector)
            plan = engine.explain(self._query(workload))
        assert plan.engine["dispatch_strategy"] == "perimeter_walk"
        assert "dispatch" in plan.format()
        doc = plan.as_dict()
        assert doc["dispatch_strategy"] == "perimeter_walk"
        json.dumps(doc)  # JSON-safe

    def test_build_explain_takes_any_result(
        self, sampled_net, sampled_form, workload
    ):
        """Any result an engine returned explains itself — batched and
        default-bundle ones included: the plan holds that very record."""
        engine = QueryEngine(sampled_net, sampled_form)
        query = self._query(workload)
        cold = engine.execute(query)
        plan = build_explain(engine, cold)
        assert plan.record is cold
        assert "batch caches" not in plan.format()
        _, hit = engine.execute_batch([query, query])
        text = build_explain(engine, hit).format()
        assert "batch caches: hit[boundary,junctions,regions,sensors]" in text


# ----------------------------------------------------------------------
# Fault schedule gauges
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_crash_schedule_exported_as_gauges(self, sampled_net):
        crashed = sorted(sampled_net.sensors)[:2]
        with use_registry() as registry:
            FaultInjector(
                FaultConfig(seed=2), sampled_net.sensors, crashed=crashed
            ).record_schedule()
            assert registry.value("repro_fault_crashed_sensors") == 2
            assert registry.value("repro_fault_flaky_sensors") == 0


# ----------------------------------------------------------------------
# A live tracer under a long-running deployment
# ----------------------------------------------------------------------
class TestTracerMemory:
    def test_constant_in_queries_and_streamed_windows(self):
        """10 000 queries and 2 000 streamed windows on a live
        tracer: once every per-query / per-window name has filled its
        ring the span count no longer moves, and the one-off spans of
        the deployment are all still there."""
        import numpy as np

        from repro.core import FrameworkConfig, InNetworkFramework
        from repro.mobility import organic_city
        from repro.obs.trace import SIBLING_RING
        from repro.trajectories import (
            WorkloadConfig,
            all_events,
            generate_workload,
        )

        obs = Instrumentation.on()
        fw = InNetworkFramework.from_road_graph(
            organic_city(blocks=40, rng=np.random.default_rng(0)),
            instrumentation=obs,
        )
        fw.deploy(
            FrameworkConfig(
                budget=20, seed=3, streaming=True, compact_every=256
            )
        )
        workload = generate_workload(
            fw.domain,
            WorkloadConfig(
                n_trips=300, horizon_days=1.0, mean_dwell=3600.0, seed=5
            ),
        )
        events = sorted(
            all_events(fw.domain, workload.trips), key=lambda e: e.t
        )
        bounds = fw.domain.bounds
        box = BBox.from_center(
            bounds.center, bounds.width * 0.45, bounds.height * 0.45
        )
        tracer, counts = obs.tracer, []
        for done, window in enumerate(np.array_split(events, 2000), 1):
            fw.ingest_events(list(window))
            for _ in range(5):
                assert not fw.query(box, 0.0, workload.horizon).missed
            if done % SIBLING_RING == 0:
                counts.append(sum(1 for _ in tracer.walk()))
        fw.close()
        # Flat from the first full ring on (256 windows, 1280 queries).
        assert len(set(counts)) == 1, counts
        per_name = {}
        for span in tracer.walk():
            per_name[span.name] = per_name.get(span.name, 0) + 1
        assert per_name["query.execute"] == per_name["ingest"] == SIBLING_RING
        assert per_name["query.integrate"] == SIBLING_RING
        for one_off in ("planarize", "deploy", "deploy.select_sensors"):
            assert per_name[one_off] == 1
        # Only the first query plans (six spans); every later one is
        # served from the engine's plan table (two: execute, integrate).
        assert tracer.dropped == (
            (10_000 - SIBLING_RING) * 2 + 4 + (2_000 - SIBLING_RING) * 3
        )


# ----------------------------------------------------------------------
# CLI acceptance: demo --trace/--metrics
# ----------------------------------------------------------------------
class TestDemoObservability:
    @pytest.fixture(scope="class")
    def demo_run(self, tmp_path_factory):
        from repro.__main__ import main

        tmp_path = tmp_path_factory.mktemp("demo-obs")
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        import io
        from contextlib import redirect_stdout

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            status = main(
                [
                    "demo",
                    "--blocks", "60",
                    "--trips", "200",
                    "--fraction", "0.4",
                    "--seed", "1",
                    "--trace", str(trace_path),
                    "--metrics", str(metrics_path),
                ]
            )
        assert status == 0
        return buffer.getvalue(), trace_path, metrics_path

    def test_trace_is_valid_chrome_json(self, demo_run):
        _, trace_path, _ = demo_run
        doc = json.loads(trace_path.read_text())
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert {"name", "ts", "pid", "tid"} <= set(event)

    def test_trace_nests_deploy_ingest_query(self, demo_run):
        _, trace_path, _ = demo_run
        events = json.loads(trace_path.read_text())["traceEvents"]
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)
        for name in ("planarize", "deploy", "ingest", "query.execute"):
            assert name in by_name, f"missing span {name}"

        def contained(child, parent):
            return (
                parent["ts"] - 1e-3 <= child["ts"]
                and child["ts"] + child["dur"]
                <= parent["ts"] + parent["dur"] + 1e-3
            )

        (deploy,) = by_name["deploy"]
        assert any(
            contained(e, deploy) for e in by_name["deploy.select_sensors"]
        )
        (ingest,) = by_name["ingest"]
        assert any(
            contained(e, ingest) for e in by_name["ingest.build_form"]
        )
        assert all(
            any(contained(e, q) for q in by_name["query.execute"])
            for e in by_name["query.integrate"]
        )

    def test_metrics_match_printed_numbers(self, demo_run):
        out, _, metrics_path = demo_run
        text = metrics_path.read_text()
        ingested = int(
            re.search(r"ingested: (\d+) crossing events", out).group(1)
        )
        assert f"repro_events_ingested_total {ingested}" in text
        deployed = int(re.search(r"deployed: (\d+) sensors", out).group(1))
        assert f"repro_deployed_sensors {deployed}" in text
        # The demo runs exactly two queries: approximate + exact.
        totals = re.findall(r"^repro_queries_total\{[^}]*\} (\d+)$",
                            text, flags=re.M)
        assert sum(int(v) for v in totals) == 2

    def test_trace_and_metrics_paths_reported(self, demo_run):
        out, trace_path, metrics_path = demo_run
        assert f"trace: wrote {trace_path}" in out
        assert f"metrics: wrote {metrics_path}" in out

"""Tests for the fleet-telemetry stack built on the obs substrate.

Covers the time-series recorder (aligned sampling, ring wrap, windowed
deltas), SLO error-budget arithmetic and the alert log, per-sensor
health scoring and fleet rollups (including the simulator's labeled
counters and active probe sweeps), query EXPLAIN consistency against
the engine's own accounting, the HTML dashboard rendering, and the
``repro monitor`` CLI acceptance path.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import BBox
from repro.network import FaultConfig, FaultInjector
from repro.obs import (
    AlertLog,
    AvailabilitySLO,
    MetricsRegistry,
    SLOStatus,
    SensorHealth,
    ThresholdSLO,
    TimeSeriesRecorder,
    build_explain,
    default_slos,
    fleet_health,
    use_registry,
)
from repro.obs.dashboard import render_dashboard
from repro.obs.health import DEGRADED_THRESHOLD, FAILED_MIN_ATTEMPTS
from repro.query import QueryEngine, RangeQuery

#: The ``repro monitor --json`` contract — ``(series key, kind)`` pairs,
#: SLO fields and health keys of one seeded run — recorded when the
#: recorder still stored rates and quantiles per tick, so views computed
#: at read time are held to the same output.
CONTRACT = Path(__file__).parent / "data" / "monitor_contract.json"


class _ManualClock:
    """A controllable monotonic clock for deterministic sampling."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture()
def clock() -> _ManualClock:
    return _ManualClock()


#: Bucket bounds and quantile points of the generated-view property.
_BOUNDS = (1.0, 5.0, 10.0, 50.0, 100.0)
_QS = (0.0, 0.5, 0.95, 0.99, 1.0)


# ----------------------------------------------------------------------
# Time-series recorder
# ----------------------------------------------------------------------
class TestTimeSeriesRecorder:
    def test_rates_are_per_second_deltas(self, clock):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, clock=clock)
        counter = registry.counter("c_total")
        counter.inc(4)
        first = recorder.sample()
        clock.t = 2.0
        counter.inc(6)
        second = recorder.sample()
        # A tick stores totals; the first tick has no interval: rate 0.
        assert first.counters[("c_total", ())] == 4
        assert second.counters[("c_total", ())] == 10
        assert recorder.series("c_total", "rate").values == (0.0, 3.0)

    def test_gauges_and_quantiles_sampled(self, clock):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, clock=clock)
        registry.gauge("g").set(7.5)
        hist = registry.histogram("h", buckets=(1, 10))
        for value in (0.5, 0.6, 5.0, 5.0):
            hist.observe(value)
        sample = recorder.sample()
        assert sample.gauges[("g", ())] == 7.5
        state = sample.histograms[("h", ())]
        # Cumulative buckets include the +Inf overflow slot.
        assert state.buckets == (2, 4, 4)
        assert (state.count, state.sum) == (4, pytest.approx(11.1))
        for q in recorder.quantiles:
            assert recorder.series("h", "quantile", q).values == (
                hist.quantile(q),
            )

    def test_metric_born_mid_run_reads_none_before_birth(self, clock):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, clock=clock)
        recorder.sample()
        clock.t = 1.0
        registry.counter("late_total").inc()
        recorder.sample()
        series = recorder.series("late_total", "total")
        assert series.values == (None, 1.0)
        assert series.last == 1.0
        assert recorder.series("late_total", "rate").values == (None, 1.0)

    def test_rate_series_sums_across_label_sets(self, clock):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, clock=clock)
        registry.counter("c_total", kind="a").inc(2)
        registry.counter("c_total", kind="b").inc(3)
        recorder.sample()
        clock.t = 1.0
        registry.counter("c_total", kind="a").inc(5)
        recorder.sample()
        assert recorder.series("c_total", "total").values == (5.0, 10.0)
        assert recorder.series("c_total", "rate").values[-1] == 5.0
        # A registry key selects one label set.
        one = recorder.series(("c_total", (("kind", "b"),)), "total")
        assert one.name == 'c_total{kind="b"}'
        assert one.values == (3.0, 3.0)

    def test_unknown_series_kind_is_rejected(self, clock):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(MetricsRegistry(), clock=clock).series(
                "c_total", "p95"
            )

    def test_ring_buffer_wraps_at_capacity(self, clock):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, capacity=4, clock=clock)
        for i in range(10):
            clock.t = float(i)
            recorder.sample()
        assert len(recorder) == 4
        assert [s.t for s in recorder.samples] == [6.0, 7.0, 8.0, 9.0]

    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(MetricsRegistry(), capacity=1)

    def test_delta_over_trailing_window(self, clock):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, clock=clock)
        counter = registry.counter("c_total")
        for t, amount in ((0.0, 1), (10.0, 2), (20.0, 4)):
            clock.t = t
            counter.inc(amount)
            recorder.sample()
        # Whole ring: everything since the first sample.
        assert recorder.delta("c_total") == 6.0
        # Trailing 10s: base is the t=10 sample.
        assert recorder.delta("c_total", window_s=10.0) == 4.0
        assert recorder.delta("missing_total") == 0.0

    def test_threshold_fraction_by_bucket_delta(self, clock):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, clock=clock)
        hist = registry.histogram("lat", buckets=(1.0, 10.0))
        hist.observe(0.5)
        recorder.sample()
        clock.t = 1.0
        for value in (0.2, 0.3, 5.0, 50.0):
            hist.observe(value)
        recorder.sample()
        good, total = recorder.threshold_fraction(
            "lat", 1.0, window_s=0.5
        )
        assert (good, total) == (2.0, 4.0)
        # A threshold inside a bucket counts only fully-covered buckets.
        good, total = recorder.threshold_fraction("lat", 5.0, window_s=0.5)
        assert (good, total) == (2.0, 4.0)

    def test_to_json_is_nan_safe(self, clock):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, clock=clock)
        registry.histogram("h")  # empty: quantiles are NaN
        registry.counter("c_total").inc()
        recorder.sample()
        doc = recorder.to_json()
        text = json.dumps(doc)  # must not raise / emit bare NaN
        assert "NaN" not in text
        assert doc["series"]["h:p50"]["values"] == [None]
        assert doc["series"]["c_total"]["kind"] == "counter_rate"

    def test_tick_cost_is_the_instrument_count_not_the_traffic(
        self, clock, sampled_net, sampled_form, workload
    ):
        """A tick reads one entry per instrument, keyed by the
        registry's own keys, however many queries ran since the last."""
        query = RangeQuery(BBox(2, 2, 8, 8), 0.0, 0.5 * workload.horizon)

        def families(source):
            return [
                set(getattr(source, name))
                for name in ("counters", "gauges", "histograms")
            ]

        with use_registry() as registry:
            engine = QueryEngine(sampled_net, sampled_form)
            recorder = TimeSeriesRecorder(registry, clock=clock)
            for _ in range(3):  # first touch, compile, hit: all series bound
                engine.execute(query)
            quiet = recorder.sample()
            clock.t = 1.0
            for _ in range(50):
                engine.execute(query)
            busy = recorder.sample()
            instruments = [
                set(registry._counters),
                set(registry._gauges),
                set(registry._histograms),
            ]
        assert recorder.delta("repro_queries_total") == 50
        assert families(busy) == families(quiet) == instruments

    @settings(max_examples=60)
    @given(
        ticks=st.lists(
            st.tuples(
                st.integers(1, 5),  # seconds since the previous tick
                st.integers(0, 40),  # increments of label set a
                st.integers(0, 40),  # increments of label set b
                st.lists(
                    st.sampled_from(_BOUNDS)
                    | st.floats(0.0, 150.0, allow_nan=False),
                    max_size=12,
                ),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_views_match_the_live_instruments(self, ticks):
        """Rates are Δtotal/Δt, quantiles at every tick equal the live
        ``Histogram.quantile``, and ``threshold_fraction`` at each bucket
        bound equals a brute-force count of the window's observations."""
        clock = _ManualClock()
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, clock=clock)
        a = registry.counter("c_total", kind="a")
        b = registry.counter("c_total", kind="b")
        hist = registry.histogram("h", buckets=_BOUNDS)
        totals, live, observed = [], [], []
        for dt, inc_a, inc_b, values in ticks:
            clock.t += dt
            a.inc(inc_a)
            b.inc(inc_b)
            for value in values:
                hist.observe(value)
            recorder.sample()
            totals.append(a.value + b.value)
            live.append([hist.quantile(q) for q in _QS])
            observed.append(values)

        times = [sample.t for sample in recorder.samples]
        expected = [0.0] + [
            (totals[i] - totals[i - 1]) / (times[i] - times[i - 1])
            for i in range(1, len(times))
        ]
        assert list(recorder.series("c_total", "rate").values) == expected
        for j, q in enumerate(_QS):
            view = recorder.series("h", "quantile", q).values
            for got, want in zip(view, (row[j] for row in live)):
                assert got == want or (math.isnan(got) and math.isnan(want))
        for i in range(len(times)):
            window = [v for later in observed[i + 1:] for v in later]
            for bound in _BOUNDS:
                assert recorder.threshold_fraction(
                    "h", bound, window_s=times[-1] - times[i]
                ) == (sum(v <= bound for v in window), len(window))


# ----------------------------------------------------------------------
# SLOs, error budgets and alerts
# ----------------------------------------------------------------------
class TestSLOArithmetic:
    def test_budget_and_burn(self):
        status = SLOStatus(
            name="s", objective=0.9, window_s=None, good=80, total=100
        )
        assert status.compliance == pytest.approx(0.8)
        assert not status.ok
        assert status.error_budget == pytest.approx(0.1)
        assert status.budget_used == pytest.approx(0.2)
        assert status.burn_rate == pytest.approx(2.0)

    def test_idle_window_is_compliant(self):
        status = SLOStatus(
            name="s", objective=0.99, window_s=None, good=0, total=0
        )
        assert status.compliance == 1.0
        assert status.ok
        assert status.burn_rate == 0.0

    def test_perfect_objective_burns_infinitely(self):
        status = SLOStatus(
            name="s", objective=1.0, window_s=None, good=99, total=100
        )
        assert status.burn_rate == float("inf")

    def test_as_dict_round_trips_fields(self):
        status = SLOStatus(
            name="s", objective=0.9, window_s=60.0, good=9, total=10
        )
        doc = status.as_dict()
        assert doc["compliance"] == pytest.approx(0.9)
        assert doc["ok"] is True
        assert doc["window_s"] == 60.0


class TestSLOEvaluation:
    def _recorder(self, clock):
        registry = MetricsRegistry()
        return registry, TimeSeriesRecorder(registry, clock=clock)

    def test_availability_counts_misses_and_degraded_dispatches(
        self, clock
    ):
        registry, recorder = self._recorder(clock)
        recorder.sample()
        clock.t = 1.0
        registry.counter("repro_queries_total", outcome="answered").inc(10)
        registry.counter("repro_query_misses_total").inc(1)
        registry.counter(
            "repro_sim_degraded_dispatches_total", strategy="perimeter_walk"
        ).inc(2)
        recorder.sample()
        status = AvailabilitySLO(name="availability", objective=0.9).evaluate(
            recorder
        )
        assert (status.good, status.total) == (7.0, 10.0)
        assert not status.ok
        assert status.burn_rate == pytest.approx(3.0)

    def test_latency_slo_uses_histogram_buckets(self, clock):
        registry, recorder = self._recorder(clock)
        hist = registry.histogram(
            "repro_query_latency_seconds", buckets=(1e-3, 2e-3, 1.0)
        )
        recorder.sample()
        clock.t = 1.0
        for value in (5e-4, 1.5e-3, 0.5):
            hist.observe(value)
        recorder.sample()
        status = ThresholdSLO(
            name="latency", objective=0.95, threshold=2e-3
        ).evaluate(recorder)
        assert (status.good, status.total) == (2.0, 3.0)

    def test_default_slos_evaluate_clean_on_idle_recorder(self, clock):
        _, recorder = self._recorder(clock)
        recorder.sample()
        statuses = [slo.evaluate(recorder) for slo in default_slos()]
        assert [s.name for s in statuses] == [
            "availability", "latency", "containment",
        ]
        assert all(s.ok for s in statuses)


class TestAlertLog:
    def _status(self, ok: bool) -> SLOStatus:
        good = 100 if ok else 10
        return SLOStatus(
            name="availability", objective=0.9, window_s=None,
            good=good, total=100,
        )

    def test_records_crossings_not_levels(self):
        log = AlertLog()
        assert log.observe(0.0, [self._status(True)]) == []
        fired = log.observe(1.0, [self._status(False)])
        assert [a.event for a in fired] == ["breach"]
        # Staying violated fires nothing new.
        assert log.observe(2.0, [self._status(False)]) == []
        fired = log.observe(3.0, [self._status(True)])
        assert [a.event for a in fired] == ["recover"]
        assert len(log) == 2
        assert "breach" in log.format() and "recover" in log.format()

    def test_empty_log_formats(self):
        assert AlertLog().format() == "no SLO threshold crossings"


# ----------------------------------------------------------------------
# Per-sensor health
# ----------------------------------------------------------------------
class TestSensorHealth:
    def test_score_and_status_transitions(self):
        assert SensorHealth(sensor=1).status == "idle"
        assert SensorHealth(sensor=1).score == 1.0
        # One dropped message does not condemn a sensor.
        assert FAILED_MIN_ATTEMPTS > 1
        assert SensorHealth(sensor=1, attempts=1, acks=0).status == "degraded"
        assert SensorHealth(
            sensor=1, attempts=FAILED_MIN_ATTEMPTS, acks=0
        ).status == "failed"
        healthy = SensorHealth(sensor=1, attempts=10, acks=9)
        assert healthy.status == "healthy"
        assert healthy.score == pytest.approx(0.9)
        flaky = SensorHealth(sensor=1, attempts=10, acks=5)
        assert flaky.score < DEGRADED_THRESHOLD
        assert flaky.status == "degraded"

    def test_fleet_rollup_from_labeled_counters(self):
        registry = MetricsRegistry()

        def contact(sensor: int, attempts: int, acks: int) -> None:
            label = str(sensor)
            registry.counter(
                "repro_sensor_attempts_total", sensor=label
            ).inc(attempts)
            if acks:
                registry.counter(
                    "repro_sensor_acks_total", sensor=label
                ).inc(acks)

        contact(3, 10, 10)
        contact(5, 10, 5)
        contact(9, 4, 0)
        recorder = TimeSeriesRecorder(registry)
        assert fleet_health(recorder).sensors == ()  # no tick yet
        recorder.sample()
        fleet = fleet_health(recorder, known_sensors=[3, 5, 9, 12])
        assert fleet.counts == {
            "healthy": 1, "degraded": 1, "failed": 1, "idle": 1,
        }
        assert fleet.failed_sensors == (9,)
        # Worst offenders: lowest score first; idle sensors excluded.
        assert [s.sensor for s in fleet.worst_offenders(2)] == [9, 5]
        report = fleet.format_report()
        assert "1 healthy, 1 degraded, 1 failed, 1 idle" in report
        assert fleet.as_dict()["failed_sensors"] == [9]

    def test_collect_ignores_malformed_sensor_labels(self):
        registry = MetricsRegistry()
        registry.counter("repro_sensor_attempts_total", sensor="7").inc()
        registry.counter("repro_sensor_attempts_total", sensor="bogus").inc()
        registry.counter("repro_sensor_attempts_total").inc()
        recorder = TimeSeriesRecorder(registry)
        recorder.sample()
        assert [s.sensor for s in fleet_health(recorder).sensors] == [7]


# ----------------------------------------------------------------------
# Simulator telemetry: labeled counters and probe sweeps
# ----------------------------------------------------------------------
def _health(registry, known_sensors=None):
    """Fleet health of one fresh tick of ``registry``."""
    recorder = TimeSeriesRecorder(registry)
    recorder.sample()
    return fleet_health(recorder, known_sensors=known_sensors)


class TestSimulatorTelemetry:
    def _query(self, workload) -> RangeQuery:
        return RangeQuery(BBox(2, 2, 8, 8), 0.0, 0.5 * workload.horizon)

    def test_faulty_dispatch_flushes_per_sensor_counters(
        self, sampled_net, sampled_form, workload
    ):
        injector = FaultInjector(
            FaultConfig(seed=5, drop_rate=0.3), sampled_net.sensors
        )
        with use_registry() as registry:
            engine = QueryEngine(sampled_net, sampled_form, faults=injector)
            result = engine.execute(self._query(workload))
            fleet = _health(registry)
        assert not result.missed
        assert fleet.sensors, "faulty dispatch must emit per-sensor telemetry"
        assert sum(s.attempts for s in fleet.sensors) > 0

    def test_fault_free_engine_emits_no_sensor_counters(
        self, sampled_net, sampled_form, workload
    ):
        with use_registry() as registry:
            engine = QueryEngine(sampled_net, sampled_form)
            engine.execute(self._query(workload))
            assert _health(registry).sensors == ()

    def test_probe_fleet_identifies_crashed_sensors(
        self, sampled_net, sampled_form
    ):
        crashed = sorted(sampled_net.sensors)[:3]
        injector = FaultInjector(
            FaultConfig(seed=2), sampled_net.sensors, crashed=crashed
        )
        with use_registry() as registry:
            engine = QueryEngine(sampled_net, sampled_form, faults=injector)
            reachable = engine.simulator.probe_fleet()
            fleet = _health(registry, known_sensors=sampled_net.sensors)
            sweeps = registry.value("repro_probe_sweeps_total")
            unreachable = registry.value("repro_probe_unreachable_total")
        assert set(reachable) == set(sampled_net.sensors)
        assert all(not reachable[s] for s in crashed)
        # Every crashed sensor shows up as failed from counters alone.
        assert set(crashed) <= set(fleet.failed_sensors)
        assert sweeps == 1
        assert unreachable >= len(crashed)
        # Responsive sensors acked their probe and stay healthy.
        healthy = {s.sensor for s in fleet.by_status("healthy")}
        assert healthy == set(sampled_net.sensors) - set(crashed)

    def test_crash_schedule_exported_as_gauges(self, sampled_net):
        crashed = sorted(sampled_net.sensors)[:2]
        with use_registry() as registry:
            FaultInjector(
                FaultConfig(seed=2), sampled_net.sensors, crashed=crashed
            ).record_schedule()
            assert registry.value("repro_fault_crashed_sensors") == 2
            assert registry.value("repro_fault_flaky_sensors") == 0


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
        self, sampled_net, sampled_form, workload
    ):
        engine = QueryEngine(sampled_net, sampled_form, planner="compiled")
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
# Dashboard rendering
# ----------------------------------------------------------------------
class TestDashboard:
    def _render(self, clock, with_data: bool) -> str:
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, clock=clock)
        recorder.sample()
        if with_data:
            clock.t = 1.0
            registry.counter("repro_queries_total").inc(5)
            registry.counter(
                "repro_sensor_attempts_total", sensor="4"
            ).inc(6)
            registry.counter(
                "repro_sensor_acks_total", sensor="4"
            ).inc(6)
            recorder.sample()
        statuses = [slo.evaluate(recorder) for slo in default_slos()]
        log = AlertLog()
        if with_data:
            log.observe(
                1.0,
                [SLOStatus(name="availability", objective=0.9,
                           window_s=None, good=1, total=10)],
            )
        return render_dashboard(
            title="monitor <test>",
            meta={"blocks": 60, "queries": 5},
            recorder=recorder,
            statuses=statuses,
            alerts=log.alerts,
            health=fleet_health(recorder, known_sensors=[4, 7]),
            explain_text="QUERY PLAN  static/lower" if with_data else None,
        )

    def test_page_is_self_contained_and_complete(self, clock):
        page = self._render(clock, with_data=True)
        assert page.startswith("<!doctype html>")
        assert "monitor &lt;test&gt;" in page  # title escaped
        assert "<svg" in page  # inline sparkline
        assert "availability" in page and "latency" in page
        assert "QUERY PLAN" in page
        assert "breach" in page  # alert timeline
        # Self-contained: no external fetches.
        assert "http://" not in page and "https://" not in page
        assert "<script" not in page

    def test_renders_with_empty_telemetry(self, clock):
        page = self._render(clock, with_data=False)
        assert page.startswith("<!doctype html>")
        assert "No SLO threshold crossings." in page


# ----------------------------------------------------------------------
# CLI acceptance: repro monitor
# ----------------------------------------------------------------------
class TestMonitorCLI:
    @pytest.fixture(scope="class")
    def monitor_run(self, tmp_path_factory):
        import io
        from contextlib import redirect_stdout

        from repro.__main__ import main

        tmp_path = tmp_path_factory.mktemp("monitor")
        html_path = tmp_path / "dashboard.html"
        json_path = tmp_path / "monitor.json"
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            status = main(
                json.loads(CONTRACT.read_text())["argv"]
                + ["--html", str(html_path), "--json", str(json_path)]
            )
        assert status == 0
        return buffer.getvalue(), html_path, json_path

    def test_smoke_invariants_hold(self, monitor_run):
        out, _, _ = monitor_run
        assert "fleet health:" in out
        assert "QUERY PLAN" in out
        assert "smoke: health, SLO burn and EXPLAIN invariants hold" in out

    def test_dashboard_artifact_written(self, monitor_run):
        _, html_path, _ = monitor_run
        page = html_path.read_text()
        assert page.startswith("<!doctype html>")
        assert "Sensor health" in page

    def test_json_export_is_complete(self, monitor_run):
        _, _, json_path = monitor_run
        doc = json.loads(json_path.read_text())
        assert set(doc) >= {"timeseries", "slos", "alerts", "health",
                            "explain"}
        assert doc["timeseries"]["samples"] >= 2
        names = {slo["name"] for slo in doc["slos"]}
        assert names == {"availability", "latency", "containment"}
        assert doc["health"]["counts"]["failed"] >= 0
        assert math.isfinite(doc["explain"]["elapsed_s"])

    def test_json_keeps_the_pinned_contract(self, monitor_run):
        _, _, json_path = monitor_run

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        doc = json.loads(json_path.read_text(), parse_constant=reject)
        contract = json.loads(CONTRACT.read_text())
        series = doc["timeseries"]["series"]
        assert sorted(doc) == contract["keys"]
        assert sorted(doc["timeseries"]) == contract["timeseries"]
        assert sorted(
            [key, entry["kind"]] for key, entry in series.items()
        ) == contract["series"]
        assert [sorted(slo) for slo in doc["slos"]] == [
            contract["slo_fields"]
        ] * 3
        assert sorted(doc["health"]) == contract["health"]

    def test_alert_times_are_seconds_into_the_run(self, tmp_path):
        """An alert's ``t`` counts from the monitor's first tick, not
        from the raw ``perf_counter`` origin (host uptime on Linux)."""
        import io
        import time
        from contextlib import redirect_stdout

        from repro.__main__ import main

        json_path = tmp_path / "monitor.json"
        started = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            status = main(
                [
                    "monitor",
                    "--faults", "0.6",
                    "--blocks", "60",
                    "--trips", "200",
                    "--queries", "20",
                    "--seed", "1",
                    "--json", str(json_path),
                ]
            )
        wall = time.perf_counter() - started
        assert status == 0
        alerts = json.loads(json_path.read_text())["alerts"]
        assert alerts  # 60 % of the sensors down breaches on the first tick
        assert all(0.0 <= alert["t"] <= wall for alert in alerts)

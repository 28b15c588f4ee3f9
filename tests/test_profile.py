"""Continuous profiling layer.

Covers:

- :class:`repro.obs.StackTable` aggregation, the collapsed-stack text
  round trip, and the worker merge identity (sum of per-worker tables
  == merged table);
- speedscope JSON export (schema-level validation: frame interning,
  sample indices in range, weights aligned and summing to the total);
- Chrome-trace counter tracks merging cleanly with the multi-pid
  swimlanes of :meth:`~repro.obs.Tracer.to_chrome_trace`;
- the sampler itself: span attribution via the per-thread tracer
  stacks, tracemalloc watermarks, the finalizer-owned thread lifecycle
  (stop / GC / ``framework.close()``);
- engine integration: ``explain()`` per-stage self time, slow flight
  records carrying ``peak_rss_bytes``/``alloc_peak_bytes`` and the
  profile slice, sharded workers shipping their stack tables home
  under the grafted ``worker.run`` span paths.
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time
import tracemalloc

import pytest

from repro.core import FrameworkConfig, InNetworkFramework
from repro.geometry import BBox
from repro.mobility import grid_city
from repro.obs import (
    FlightRecorder,
    Instrumentation,
    NULL_INSTRUMENTATION,
    Profiler,
    StackTable,
    Tracer,
    memory_snapshot,
    overlay_counters,
    record_dict,
)
from repro.obs.profile import COUNTER_SAMPLES, SPAN_PREFIX
from repro.query import RangeQuery
from repro.trajectories import WorkloadConfig, generate_workload

HORIZON = 86400.0


def _table(hz: float = 100.0) -> StackTable:
    table = StackTable(hz=hz)
    table.add(("query.execute", "query.integrate"), ("a", "b", "c"), 3)
    table.add(("query.execute",), ("a", "b"), 2)
    table.add((), ("main",), 1)
    return table


# ----------------------------------------------------------------------
# StackTable aggregation + wire formats
# ----------------------------------------------------------------------
class TestStackTable:
    def test_counts_are_additive(self):
        table = StackTable(hz=50.0)
        table.add(("s",), ("f",))
        table.add(("s",), ("f",), 4)
        assert table.counts[(("s",), ("f",))] == 5
        assert table.total == 5
        assert len(table) == 1

    def test_hz_validated(self):
        with pytest.raises(ValueError):
            StackTable(hz=0.0)

    def test_self_seconds_by_span(self):
        table = _table(hz=100.0)
        seconds = table.self_seconds_by_span()
        assert seconds[("query.execute", "query.integrate")] == 0.03
        assert seconds[("query.execute",)] == 0.02
        assert seconds[()] == 0.01

    def test_leaf_self_seconds_groups_by_innermost(self):
        leafs = _table(hz=100.0).leaf_self_seconds()
        assert leafs["query.integrate"] == 0.03
        assert leafs["query.execute"] == 0.02
        assert leafs["(no span)"] == 0.01

    def test_top_rows_ranked_with_share(self):
        rows = _table().top_rows(2)
        assert len(rows) == 2
        assert rows[0]["samples"] == 3
        assert rows[0]["span_path"] == "query.execute > query.integrate"
        assert rows[0]["frame"] == "c"
        assert rows[0]["share"] == pytest.approx(0.5)

    def test_dict_round_trip(self):
        table = _table()
        clone = StackTable.from_dict(table.as_dict())
        assert clone.counts == table.counts
        assert clone.hz == table.hz

    def test_drain_clears(self):
        table = _table()
        payload = table.drain()
        assert payload["total"] == 6
        assert table.total == 0 and len(table) == 0

    def test_collapsed_round_trip(self):
        table = _table()
        text = table.to_collapsed()
        # span components carry the marker prefix; counts close lines
        assert f"{SPAN_PREFIX}query.execute;" in text
        clone = StackTable.from_collapsed(text, hz=table.hz)
        assert clone.counts == table.counts

    def test_collapsed_empty(self):
        assert StackTable(hz=1.0).to_collapsed() == ""
        assert StackTable.from_collapsed("").counts == {}

    def test_merge_identity_sum_of_workers(self):
        """The cross-process contract: merging per-worker tables gives
        the same table a single observer would have built."""
        worker_a = StackTable(hz=97.0)
        worker_a.add(("worker.run",), ("fa",), 2)
        worker_a.add(("worker.run", "query.integrate"), ("fb",), 1)
        worker_b = StackTable(hz=97.0)
        worker_b.add(("worker.run",), ("fa",), 3)
        worker_b.add(("worker.run",), ("fc",), 4)

        merged = StackTable(hz=97.0)
        merged.merge(worker_a.as_dict())
        merged.merge(worker_b.as_dict())

        expected = {}
        for worker in (worker_a, worker_b):
            for key, count in worker.counts.items():
                expected[key] = expected.get(key, 0) + count
        assert merged.counts == expected
        assert merged.total == worker_a.total + worker_b.total

    def test_merge_prefix_nests_span_paths(self):
        worker = StackTable(hz=97.0)
        worker.add(("worker.run", "query.integrate"), ("f",), 2)
        parent = StackTable(hz=97.0)
        parent.merge(worker, prefix=("query.execute_sharded",
                                     "sharded.scatter"))
        (key,) = parent.counts
        assert key[0] == ("query.execute_sharded", "sharded.scatter",
                          "worker.run", "query.integrate")


# ----------------------------------------------------------------------
# speedscope export
# ----------------------------------------------------------------------
class TestSpeedscope:
    def test_schema_shape(self):
        doc = _table(hz=100.0).to_speedscope(name="t")
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        assert isinstance(doc["shared"]["frames"], list)
        assert all(
            isinstance(frame, dict) and "name" in frame
            for frame in doc["shared"]["frames"]
        )
        (profile,) = doc["profiles"]
        assert profile["type"] == "sampled"
        assert profile["unit"] == "seconds"
        assert len(profile["samples"]) == len(profile["weights"])
        n_frames = len(doc["shared"]["frames"])
        for sample in profile["samples"]:
            assert all(0 <= index < n_frames for index in sample)

    def test_weights_sum_to_total_seconds(self):
        table = _table(hz=100.0)
        doc = table.to_speedscope()
        (profile,) = doc["profiles"]
        assert sum(profile["weights"]) == pytest.approx(
            table.total / table.hz
        )
        assert profile["endValue"] == pytest.approx(table.total / table.hz)
        assert profile["startValue"] == 0.0

    def test_span_components_become_outer_frames(self):
        doc = _table().to_speedscope()
        frames = doc["shared"]["frames"]
        span_indices = {
            i for i, frame in enumerate(frames)
            if frame["name"].startswith(SPAN_PREFIX)
        }
        assert span_indices  # span frames exist
        (profile,) = doc["profiles"]
        for sample in profile["samples"]:
            # span frames, if any, strictly precede code frames
            seen_code = False
            for index in sample:
                if index in span_indices:
                    assert not seen_code
                else:
                    seen_code = True

    def test_json_serializable(self):
        json.dumps(_table().to_speedscope())


# ----------------------------------------------------------------------
# Chrome-trace counter overlay
# ----------------------------------------------------------------------
class TestChromeCounters:
    def test_counter_events_shape(self):
        profiler = Profiler(hz=500.0)
        profiler.sample_once()
        events = profiler.chrome_counter_events(origin=0.0, pid=1234)
        assert events
        for event in events:
            assert event["ph"] == "C"
            assert event["pid"] == 1234
            assert event["name"] == COUNTER_SAMPLES
            assert "threads" in event["args"]

    def test_overlay_merges_with_multi_pid_swimlanes(self):
        """Counter tracks must coexist with grafted worker lanes: the
        merged trace keeps one lane per worker pid and gains the
        parent-pid counter series."""
        tracer = Tracer()
        with tracer.span("query.execute_sharded"):
            with tracer.span("sharded.scatter") as scatter:
                pass
        foreign = {
            "name": "worker.run",
            "start": tracer.origin + 1e-4,
            "end": tracer.origin + 2e-4,
            "attributes": {},
            "pid": 999_999,
            "tid": 2,
        }
        tracer.graft([foreign], under=scatter)

        profiler = Profiler(tracer=tracer, hz=500.0)
        profiler.sample_once()

        trace = tracer.to_chrome_trace()
        span_pids = {
            event["pid"]
            for event in trace["traceEvents"]
            if event.get("ph") == "X"
        }
        assert 999_999 in span_pids  # worker lane present
        overlay_counters(trace, profiler, origin=tracer.origin)
        counters = [
            event for event in trace["traceEvents"]
            if event.get("ph") == "C"
        ]
        assert counters
        assert all(event["pid"] == os.getpid() for event in counters)
        # the span lanes survived the merge untouched
        assert span_pids <= {
            event["pid"] for event in trace["traceEvents"]
        }
        json.dumps(trace)


# ----------------------------------------------------------------------
# The sampler: attribution, memory, lifecycle
# ----------------------------------------------------------------------
class TestSampler:
    def test_sample_attributed_to_open_span_path(self):
        tracer = Tracer()
        profiler = Profiler(tracer=tracer, hz=500.0)
        with tracer.span("outer"):
            with tracer.span("inner"):
                profiler.sample_once()
        paths = {path for path, _frames in profiler.table.counts}
        assert ("outer", "inner") in paths

    def test_sample_without_tracer_lands_bare(self):
        profiler = Profiler(hz=500.0)
        profiler.sample_once()
        assert profiler.table.total >= 1
        assert all(
            path == () for path, _ in profiler.table.counts
        )

    def test_own_frames_excluded(self):
        profiler = Profiler(hz=500.0)
        profiler.sample_once()
        for _path, frames in profiler.table.counts:
            # the sampler's own sample_once frame is filtered out
            assert not any("(profile.py:" in frame for frame in frames)

    def test_hz_validated(self):
        with pytest.raises(ValueError):
            Profiler(hz=0.0)
        with pytest.raises(ValueError):
            Profiler(hz=20_000.0)

    def test_background_thread_collects(self):
        tracer = Tracer()
        profiler = Profiler(tracer=tracer, hz=500.0).start()
        try:
            deadline = time.perf_counter() + 2.0
            with tracer.span("busy"):
                while (
                    profiler.table.total == 0
                    and time.perf_counter() < deadline
                ):
                    time.sleep(0.002)
            assert profiler.table.total > 0
        finally:
            profiler.stop()

    def test_memory_watermarks_per_span_path(self):
        tracer = Tracer()
        profiler = Profiler(tracer=tracer, hz=500.0, memory=True).start()
        try:
            with tracer.span("alloc.heavy"):
                ballast = [bytes(1024) for _ in range(2000)]
                profiler.sample_once()
                del ballast
        finally:
            profiler.stop()
        assert not tracemalloc.is_tracing()  # profiler owned the start
        peaks = {
            path: peak
            for path, peak in profiler.mem_peak_bytes.items()
            if "alloc.heavy" in path
        }
        assert peaks
        assert max(peaks.values()) > 1024 * 1000

    def test_memory_snapshot_fields(self):
        snapshot = memory_snapshot()
        assert snapshot["peak_rss_bytes"] is None or (
            snapshot["peak_rss_bytes"] > 0
        )
        assert snapshot["alloc_peak_bytes"] is None  # not tracing here

    def test_stop_joins_thread_and_is_idempotent(self):
        profiler = Profiler(hz=500.0).start()
        sampler = profiler._thread
        assert profiler.running and sampler.is_alive()
        profiler.stop()
        assert not profiler.running
        assert not sampler.is_alive()
        profiler.stop()  # idempotent
        profiler.start()  # restartable
        assert profiler.running
        profiler.stop()

    def test_finalizer_reaps_abandoned_thread(self):
        profiler = Profiler(hz=500.0).start()
        sampler = profiler._thread
        del profiler
        gc.collect()
        sampler.join(timeout=5.0)
        assert not sampler.is_alive()

    def test_context_manager(self):
        with Profiler(hz=500.0) as profiler:
            assert profiler.running
        assert not profiler.running

    def test_timeline_bounded(self):
        profiler = Profiler(hz=500.0, max_timeline=4)
        for _ in range(10):
            profiler.sample_once()
        assert len(profiler.timeline) == 4

    def test_write_outputs(self, tmp_path):
        tracer = Tracer()
        profiler = Profiler(tracer=tracer, hz=500.0)
        with tracer.span("w"):
            profiler.sample_once()
        paths = profiler.write(str(tmp_path / "prof"))
        collapsed = open(paths["collapsed"]).read()
        assert StackTable.from_collapsed(collapsed).counts == (
            profiler.table.counts
        )
        doc = json.load(open(paths["speedscope"]))
        assert doc["profiles"][0]["type"] == "sampled"


# ----------------------------------------------------------------------
# Config + framework lifecycle
# ----------------------------------------------------------------------
class TestFrameworkIntegration:
    @pytest.fixture(scope="class")
    def road(self):
        return grid_city(rows=6, cols=6, jitter=0.0, drop_fraction=0.0)

    def _deploy(self, road, hz, flight=None, **kwargs):
        """A framework whose bundle carries a running sampler: built,
        like the flight recorder, by the caller and handed over."""
        tracer = Tracer()
        obs = Instrumentation(
            tracer=tracer, profiler=Profiler(tracer=tracer, hz=hz).start()
        )
        framework = InNetworkFramework.from_road_graph(
            road, instrumentation=obs, flight=flight
        )
        framework.deploy(FrameworkConfig(budget=10, seed=3, **kwargs))
        workload = generate_workload(
            framework.domain,
            WorkloadConfig(n_trips=120, horizon_days=1.0, seed=5),
        )
        framework.ingest_trips(workload.trips)
        return framework

    def test_deploy_starts_profiler_null_obs_not_mutated(self, road):
        """The constructor's profiler is the framework's; deploying
        starts nothing of its own, and a framework built without a
        bundle keeps the shared null one, which never grows a
        profiler."""
        framework = self._deploy(road, 200.0)
        try:
            assert framework.profiler is framework.obs.profiler
            assert framework.profiler.running
            assert framework.profiler.hz == 200.0
            plain = InNetworkFramework.from_road_graph(road)
            plain.deploy(FrameworkConfig(budget=10, seed=3))
            assert plain.obs is NULL_INSTRUMENTATION
            assert plain.profiler is None
            assert NULL_INSTRUMENTATION.profiler is None
        finally:
            framework.close()
        assert not framework.profiler.running

    def test_redeploy_leaves_profiler_running(self, road):
        """A re-deploy is no business of the sampler's: it keeps
        running, into the same table, until ``close()``."""
        framework = self._deploy(road, 200.0)
        profiler = framework.profiler
        framework.deploy(FrameworkConfig(budget=10, seed=3))
        assert framework.profiler is profiler and profiler.running
        framework.close()
        assert not profiler.running

    def test_explain_reports_profile_self_time(self, road):
        framework = self._deploy(road, 500.0)
        try:
            box = BBox(0.5, 0.5, 8.5, 8.5)
            # anchor at least one sample inside an execution
            for _ in range(3):
                framework.query(box, 0.0, HORIZON / 2)
                framework.profiler.sample_once()
            explain = framework.explain(box, 0.0, HORIZON / 2)
            sampled = explain.engine["profile_self_s"]
            assert sampled  # sampled evidence present
            assert all(seconds > 0 for seconds in sampled.values())
            assert "profile self-time" in explain.format()
            assert "profile_self_s" in explain.as_dict()
        finally:
            framework.close()

    def test_slow_flight_record_carries_memory_and_profile(self, road):
        framework = self._deploy(
            road, 200.0, flight=FlightRecorder(slow_threshold_s=1e-9)
        )
        try:
            box = BBox(0.5, 0.5, 8.5, 8.5)
            result = framework.query(box, 0.0, HORIZON / 2)
            flight = framework.flight_log()
            assert flight.slow_total >= 1
            (record,) = flight.slow_records[-1:]
            assert record is result
            assert record.peak_rss_bytes is not None
            assert record.peak_rss_bytes > 0
            assert "profile_top" in record.detail
            as_dict = record_dict(record)
            assert as_dict["peak_rss_bytes"] == record.peak_rss_bytes
            assert any(
                "rss=" in line for line in flight.format_slow()
            )
        finally:
            framework.close()

    def test_sharded_workers_ship_profiles_under_worker_run(self, road):
        """The acceptance path: worker samples must land nested under
        the grafted ``worker.run`` span paths in the parent's table."""
        framework = self._deploy(road, 200.0, shards=2)
        try:
            engine = framework.engine()
            box = BBox(0.5, 0.5, 8.5, 8.5)
            queries = [
                RangeQuery(box, 0.0, HORIZON * f) for f in (0.3, 0.5, 0.7)
            ]
            engine.execute_batch(queries)
            paths = {
                path for path, _ in framework.profiler.table.counts
            }
            worker_paths = [
                path
                for path in paths
                if path[:3] == ("query.execute_sharded",
                               "sharded.scatter", "worker.run")
            ]
            assert worker_paths  # anchor sample guarantees >= 1
        finally:
            framework.close()


# ----------------------------------------------------------------------
# Tracer per-thread stacks (the attribution join's substrate)
# ----------------------------------------------------------------------
class TestTracerThreadStacks:
    def test_open_path_defaults_to_calling_thread(self):
        tracer = Tracer()
        assert tracer.open_path() == ()
        with tracer.span("a"):
            with tracer.span("b"):
                assert tracer.open_path() == ("a", "b")
            assert tracer.open_path() == ("a",)
        assert tracer.open_path() == ()

    def test_spans_nest_per_thread(self):
        tracer = Tracer()
        seen = {}
        barrier = threading.Barrier(2, timeout=10.0)

        def work(name):
            with tracer.span(name):
                barrier.wait()  # both spans open concurrently
                seen[name] = tracer.open_path()
                barrier.wait()

        threads = [
            threading.Thread(target=work, args=(name,))
            for name in ("t1", "t2")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # each thread saw only its own stack, not the other's
        assert seen == {"t1": ("t1",), "t2": ("t2",)}
        assert len(tracer.roots) == 2

    def test_profiler_field_on_instrumentation(self):
        obs = Instrumentation(tracer=Tracer())
        assert obs.profiler is None
        assert NULL_INSTRUMENTATION.profiler is None

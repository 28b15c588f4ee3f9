"""Sharded scatter-gather engine: merge equivalence, ordering, shm.

Covers the randomized shard-merge equivalence grid (shards x
deployments x query kinds) against both single-process planners, the
input-order result contract under interleaved shard completion,
shared-memory pack/attach round trips, leak-proof segment cleanup
(close, GC, worker-crash and failed-construction paths) and worker
metric merging.
"""

from __future__ import annotations

import errno
import gc
import glob
import os
import signal
import time

import numpy as np
import pytest

from test_query_planner import _battery, _deployment, _key

import repro.shm
from repro.core import FrameworkConfig
from repro.errors import QueryError
from repro.forms import CompiledTrackingForm
from repro.mobility import grid_strata
from repro.obs import MetricsRegistry, use_registry
from repro.obs.metrics import diff_dumps
from repro.query import QueryEngine, ShardedQueryEngine, shard_of_edges
from repro.shm import attach_arrays, destroy_segment, pack_arrays
from repro.trajectories import EventColumns


def _summed(registry, name: str) -> float:
    """A counter's value summed over every label set."""
    return sum(v for n, _, v in registry.dump()["counters"] if n == name)

HORIZON = 86400.0


@pytest.fixture(scope="module", params=[("grid", 6), ("organic", 8),
                                        ("organic", 16)],
                ids=lambda p: f"{p[0]}-{p[1]}")
def deployment(request):
    """(network, form, columns, battery) for sharded cross-checks."""
    style, budget = request.param
    network, form, workload = _deployment(style, budget, seed=37)
    domain = network.domain
    columns = EventColumns.from_events(domain, workload.events(domain))
    battery = _battery(domain, HORIZON, seed=61)
    return network, form, columns, battery


def _segments():
    return set(glob.glob("/dev/shm/repro-shm-*"))


# ----------------------------------------------------------------------
# Randomized shard-merge equivalence grid
# ----------------------------------------------------------------------
class TestShardMergeEquivalence:
    @pytest.mark.parametrize("shards", [2, 4, 7])
    def test_field_identical_to_both_planners(self, deployment, shards):
        network, form, columns, battery = deployment
        compiled = QueryEngine(
            network, form
        ).execute_batch(battery)
        python = QueryEngine(
            network, form, planner="python"
        ).execute_batch(battery)
        assert [_key(r) for r in compiled] == [_key(r) for r in python]
        with ShardedQueryEngine(network, columns, shards=shards) as engine:
            results = engine.execute_batch(battery)
        assert [_key(r) for r in results] == [_key(r) for r in compiled]

    def test_one_shard_or_no_worker_is_rejected(self, deployment):
        network, _, columns, _ = deployment
        for kwargs in ({"shards": 1}, {"shards": 4, "workers": 0}):
            with pytest.raises(QueryError, match="shards >= 2"):
                ShardedQueryEngine(network, columns, **kwargs)

    def test_empty_batch_and_single_query(self, deployment):
        network, form, columns, battery = deployment
        with ShardedQueryEngine(network, columns, shards=2) as engine:
            assert engine.execute_batch([]) == []
            single = engine.execute_batch(battery[:1])
            many = engine.execute_batch(battery[:8])
        reference = QueryEngine(network, form).execute_batch(battery[:8])
        assert [_key(r) for r in single] == [_key(reference[0])]
        assert [_key(r) for r in many] == [_key(r) for r in reference]


# ----------------------------------------------------------------------
# Input-order result contract
# ----------------------------------------------------------------------
class TestOrderingContract:
    def test_sharded_results_slot_by_input_index(self, deployment):
        """Interleaved shard completion must not reorder results.

        Two workers drain unevenly sized sub-batches concurrently, so
        gather order differs from scatter order; every result must
        still answer its own input slot.
        """
        network, form, columns, battery = deployment
        rng = np.random.default_rng(7)
        shuffled = [battery[i] for i in rng.permutation(len(battery))]
        with ShardedQueryEngine(
            network, columns, shards=4, workers=2
        ) as engine:
            results = engine.execute_batch(shuffled)
        assert len(results) == len(shuffled)
        for result, query in zip(results, shuffled):
            assert result.query is query

    def test_single_process_batch_preserves_input_order(self, deployment):
        network, form, columns, battery = deployment
        rng = np.random.default_rng(11)
        shuffled = [battery[i] for i in rng.permutation(len(battery))]
        results = QueryEngine(
            network, form
        ).execute_batch(shuffled)
        for result, query in zip(results, shuffled):
            assert result.query is query


# ----------------------------------------------------------------------
# Shared-memory round trips
# ----------------------------------------------------------------------
class TestShmRoundTrip:
    def test_pack_attach_arrays(self):
        arrays = {
            "a": np.arange(17, dtype=np.int32),
            "b": np.linspace(0, 1, 9),
            "c": np.zeros(0, dtype=np.int8),
        }
        handle, descriptor = pack_arrays(arrays, hint="t")
        try:
            attached_handle, views = attach_arrays(descriptor)
            for key, array in arrays.items():
                assert views[key].dtype == array.dtype
                np.testing.assert_array_equal(views[key], array)
            attached_handle.close()
        finally:
            destroy_segment(handle)
        assert descriptor["segment"] not in {
            os.path.basename(p) for p in _segments()
        }

    def test_compiled_form_round_trip(self, deployment):
        network, form, columns, battery = deployment
        handle, descriptor = form.shm_pack()
        try:
            attached = CompiledTrackingForm.shm_attach(
                descriptor, columns.interner
            )
            assert attached.total_events == form.total_events
            assert attached.edge_count == form.edge_count
            for edge in list(form.edges())[:10]:
                assert attached.timestamps(edge) == form.timestamps(edge)
            engine_a = QueryEngine(network, form)
            engine_b = QueryEngine(network, attached)
            keys_a = [_key(r) for r in engine_a.execute_batch(battery[:20])]
            keys_b = [_key(r) for r in engine_b.execute_batch(battery[:20])]
            assert keys_a == keys_b
        finally:
            destroy_segment(handle)

    def test_attach_freezes_packing_time_id_universe(self):
        # Own deployment: interning a synthetic edge below mutates the
        # interner, which must not leak into the shared fixture.
        network, form, workload = _deployment("grid", 5, seed=99)
        columns = EventColumns.from_events(
            network.domain, workload.events(network.domain)
        )
        handle, descriptor = form.shm_pack()
        try:
            columns.interner.intern("__shmtest_u__", "__shmtest_v__")
            attached = CompiledTrackingForm.shm_attach(
                descriptor, columns.interner
            )
            assert attached._n_ids == form._n_ids
            assert attached._n_ids < len(columns.interner)
            assert attached.count_entering(
                ("__shmtest_u__", "__shmtest_v__"), HORIZON
            ) == 0
        finally:
            destroy_segment(handle)


# ----------------------------------------------------------------------
# Leak-proof lifecycle
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a POSIX /dev/shm"
)
class TestShmLifecycle:
    def test_close_unlinks_segments(self, deployment):
        network, _, columns, battery = deployment
        before = _segments()
        engine = ShardedQueryEngine(network, columns, shards=3)
        created = _segments() - before
        assert len(created) == 3
        engine.execute_batch(battery[:8])
        engine.close()
        assert engine.closed
        assert _segments() == before
        engine.close()  # idempotent
        with pytest.raises(QueryError):
            engine.execute_batch(battery[:4])

    def test_garbage_collection_unlinks_segments(self, deployment):
        network, _, columns, _ = deployment
        before = _segments()
        engine = ShardedQueryEngine(network, columns, shards=2)
        assert _segments() != before
        del engine
        gc.collect()
        assert _segments() == before

    def test_worker_crash_still_cleans_up(self, deployment, capsys):
        network, _, columns, battery = deployment
        before = _segments()
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = ShardedQueryEngine(
                network, columns, shards=2, workers=1
            )
        engine.execute_batch(battery[:8])  # spawn the worker
        for pid in list(engine._executor._processes):
            os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if not any(
                p.is_alive() for p in engine._executor._processes.values()
            ):
                break
            time.sleep(0.05)
        # A batch against the dead pool surfaces a structured error
        # (counter + log record), never a bare BrokenProcessPool.
        with pytest.raises(QueryError, match="worker pool died"):
            engine.execute_batch(battery[:8])
        snap = registry.snapshot()
        assert snap["counters"]["repro_shard_worker_crash_total"] >= 1
        captured = capsys.readouterr()
        out = captured.out + captured.err
        assert "shard worker pool died" in out
        assert "error=BrokenProcessPool" in out
        engine.close()
        assert _segments() == before

    def test_submit_time_crash_is_structured(self, deployment, monkeypatch):
        """An already-broken pool fails at ``submit``, before any
        future exists: the error must still be the structured one —
        never an ``UnboundLocalError`` from the futures bookkeeping."""
        from concurrent.futures.process import BrokenProcessPool

        network, _, columns, battery = deployment
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = ShardedQueryEngine(
                network, columns, shards=2, workers=1
            )
        with engine:

            def broken_submit(*args, **kwargs):
                raise BrokenProcessPool("pool is broken")

            monkeypatch.setattr(engine._executor, "submit", broken_submit)
            with pytest.raises(QueryError, match="worker pool died") as info:
                engine.execute_batch(battery[:8])
            assert isinstance(info.value.__cause__, BrokenProcessPool)
            assert registry.value("repro_shard_worker_crash_total") == 1

    def test_failed_build_leaves_no_segment(self, deployment, monkeypatch):
        """Packing fails on the second shard: the error surfaces, and
        the first shard's segment is unlinked at once — not left in
        /dev/shm until the interpreter exits."""
        network, _, columns, _ = deployment
        pack, hints = repro.shm.pack_arrays, []

        def pack_then_fail(arrays, hint=""):
            hints.append(hint)
            if len(hints) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return pack(arrays, hint=hint)

        monkeypatch.setattr(repro.shm, "pack_arrays", pack_then_fail)
        before = _segments()
        with pytest.raises((QueryError, OSError)):
            ShardedQueryEngine(network, columns, shards=3, workers=1)
        assert hints == ["shard0", "shard1"]
        assert _segments() == before

    def test_context_manager_unlinks(self, deployment):
        network, _, columns, battery = deployment
        before = _segments()
        with ShardedQueryEngine(network, columns, shards=2) as engine:
            engine.execute_batch(battery[:8])
            assert _segments() != before
        assert _segments() == before


# ----------------------------------------------------------------------
# Worker metric merging
# ----------------------------------------------------------------------
class TestMetricsMerge:
    def test_dump_absorb_round_trip(self):
        source = MetricsRegistry()
        source.counter("c_total", outcome="x").inc(3)
        source.counter("c_total", outcome="y").inc(2.5)
        source.gauge("g").set(7)
        hist = source.histogram("h", buckets=(1, 10))
        hist.observe(0.5)
        hist.observe(5)
        hist.observe(100)
        target = MetricsRegistry()
        target.counter("c_total", outcome="x").inc(1)
        target.absorb(source.dump())
        assert target.value("c_total", outcome="x") == 4
        assert target.value("c_total", outcome="y") == 2.5
        assert target.value("g") == 7
        merged = target.histogram("h", buckets=(1, 10))
        assert merged.count == 3
        assert merged.sum == pytest.approx(105.5)
        assert merged.counts == [1, 1, 1]

    def test_absorb_skips_names(self):
        source = MetricsRegistry()
        source.counter("keep_total").inc(2)
        source.counter("skip_total").inc(9)
        target = MetricsRegistry()
        target.absorb(source.dump(), skip=("skip_total",))
        assert target.value("keep_total") == 2
        assert target.value("skip_total") == 0

    def test_diff_dumps_yields_pure_delta(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(5)
        registry.histogram("h", buckets=(1,)).observe(0.5)
        first = registry.dump()
        registry.counter("c_total").inc(2)
        registry.counter("new_total").inc(1)
        registry.histogram("h", buckets=(1,)).observe(3.0)
        delta = diff_dumps(registry.dump(), first)
        target = MetricsRegistry()
        target.absorb(delta)
        assert target.value("c_total") == 2
        assert target.value("new_total") == 1
        hist = target.histogram("h", buckets=(1,))
        assert hist.count == 1
        assert hist.sum == pytest.approx(3.0)
        assert diff_dumps(registry.dump(), registry.dump())["counters"] == []

    def test_sharded_traffic_lands_in_parent_registry(self, deployment):
        network, form, columns, battery = deployment
        with use_registry() as single_registry:
            QueryEngine(
                network, form
            ).execute_batch(battery)
        with use_registry() as sharded_registry:
            with ShardedQueryEngine(
                network, columns, shards=3
            ) as engine:
                engine.execute_batch(battery)
        # Canonical per-query series: counted once per query, exactly
        # as the single-process engine counts them.
        for name in (
            "repro_queries_total",
            "repro_query_misses_total",
            "repro_query_edges_accessed_total",
            "repro_query_sensors_accessed_total",
        ):
            assert _summed(sharded_registry, name) == pytest.approx(
                _summed(single_registry, name)
            ), name
        # Worker-internal activity is merged in rather than lost.
        assert _summed(sharded_registry, "repro_csr_searchsorted_total") > 0
        assert _summed(sharded_registry, "repro_sharded_batches_total") == 1
        assert _summed(sharded_registry, "repro_sharded_subqueries_total") > 0


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestPartition:
    def test_every_edge_gets_one_district(self, deployment):
        network, _, columns, _ = deployment
        strata = grid_strata(network.domain.bounds, rows=2, cols=2)
        labels = shard_of_edges(network.domain, strata)
        assert len(labels) == len(network.domain.edge_interner)
        assert labels.min() >= 0 and labels.max() < strata.count

    def test_shard_slices_partition_observed_events(self, deployment):
        network, _, columns, _ = deployment
        with ShardedQueryEngine(network, columns, shards=5) as engine:
            observed = network.observed_columns(columns)
            assert sum(engine.shard_events) == len(observed)
            layout = engine.describe()
            assert layout["shards"] == 5
            assert layout["events_per_shard"] == engine.shard_events



# ----------------------------------------------------------------------
# Framework threading: there is none
# ----------------------------------------------------------------------
class TestFrameworkThreading:
    def test_config_validation(self):
        """The framework threads no sharded engine: its config takes no
        planner and no shard count."""
        for option in ({"planner": "sharded"}, {"shards": 2}):
            with pytest.raises(TypeError):
                FrameworkConfig(**option)
        assert not hasattr(FrameworkConfig(), "sharded")

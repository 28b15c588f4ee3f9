"""The sharded scatter-gather query engine (district-parallel reads).

:class:`ShardedQueryEngine` runs the compiled read path across worker
processes by exploiting the same spatial decomposition the paper's
in-network design rests on: events partition cleanly by the *district*
their wall lies in, and the signed boundary integral of Theorems
4.2/4.3 is **linear over events** — so the exact answer of any query
is the sum of the per-shard answers over the shards whose events can
touch its boundary.

Pipeline:

1. **Partition** (construction time): the mobility domain is split
   into K Voronoi districts (:func:`~repro.mobility.voronoi_strata`,
   seed 0); every monitored wall — and therefore every observed event
   — is assigned to the district containing its midpoint.  Each
   shard's event slice is compiled into its own
   :class:`~repro.forms.CompiledTrackingForm` and packed into a
   :mod:`multiprocessing.shared_memory` segment (:mod:`repro.shm`), so
   workers attach zero-copy views instead of unpickling megabytes.
2. **Route** (per batch): the parent runs the shared batch plan
   (:class:`~repro.query.pipeline.PlanStage`: bbox → junctions →
   region approximation → chain → sensors, read from its plan table or
   resolved once per batch) over its own
   :class:`~repro.query.CompiledQueryPlanner`, then consults a
   precomputed region×shard reachability table (shard *s* can reach
   region *r* iff *s* holds at least one event on a wall adjacent to
   *r*).  Misses are answered locally; queries no shard can affect are
   answered locally with value 0 and the exact structural accounting
   their plan row holds.
3. **Scatter/gather**: per-shard sub-batches run a stock
   :class:`~repro.query.QueryEngine` ``execute_batch`` over the
   shard's attached form; the parent sums the per-shard values, builds
   every query's record — gathered, unreachable or missed — through
   the shared :meth:`~repro.query.pipeline.QueryAccounting.record`,
   **in input order**, and accounts the batch once through
   :meth:`~repro.query.pipeline.QueryAccounting.finish_batch`: results
   are field-identical to the single-process engine (same values,
   misses, region ids and edge/sensor/hop accounting).  Only the
   timing fields (``elapsed``, ``stage_s``, ``cache_hits``) differ, as
   they describe a different execution shape.

Metrics: the parent accounts the canonical per-query series
(``repro_queries_total``, misses, sensors/edges, latency) exactly once
per batch, with its totals, through the same
:class:`~repro.query.pipeline.QueryAccounting` the single-process
engine binds; worker registries ship per-call deltas
(:func:`repro.obs.metrics.diff_dumps`) that the parent absorbs with
those canonical names skipped, so internal counters (searchsorted
calls, boundary-cache outcomes, batch-cache hits) stay visible without
fan-out double counting.  Per-batch stage wall times (``route`` /
``scatter`` / ``worker_wait`` / ``merge``) land in the
``repro_sharded_stage_seconds`` histogram and on every record's
``stage_s``.

Lifecycle: the engine owns its segments and worker pool.  Use it as a
context manager or call :meth:`ShardedQueryEngine.close`; a
``weakref.finalize`` registered before the first segment is packed
(which also registers atexit) guarantees the ``/dev/shm`` segments are
unlinked on a failed construction, on abandoned engines and after
worker crashes.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref
from concurrent.futures import as_completed, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import QueryError
from ..forms import CompiledTrackingForm
from ..mobility import EXT, Strata, voronoi_strata
from ..obs import (
    MetricsRegistry,
    NULL_TRACER,
    SECONDS_BUCKETS,
    get_logger,
    get_registry,
    kv,
    set_registry,
)
from ..obs.metrics import diff_dumps
from ..sampling import SensorNetwork
from ..shm import destroy_segment
from ..trajectories import EventColumns
from .engine import QueryEngine
from .pipeline import PlanStage, QueryAccounting
from .planner import CompiledQueryPlanner
from .result import QueryResult, RangeQuery

#: Per-query metric names the parent accounts canonically; worker
#: dumps are absorbed with these skipped so a query scattered to k
#: shards is still counted once.
PARENT_ACCOUNTED_METRICS = (
    "repro_queries_total",
    "repro_query_misses_total",
    "repro_query_seconds_total",
    "repro_query_latency_seconds",
    "repro_query_sensors_accessed_total",
    "repro_query_edges_accessed_total",
    "repro_query_batch_fill_seconds_total",
)

#: Scatter-gather pipeline stages, in execution order, as labelled in
#: the ``repro_sharded_stage_seconds`` histogram.
SHARDED_STAGES = ("route", "scatter", "worker_wait", "merge")

log = get_logger("query.sharded")


def shard_of_edges(domain, strata: Strata) -> np.ndarray:
    """District label per interned edge id, by wall midpoint.

    Geofence (EXT) walls sit on the domain rim; they take the district
    of their junction endpoint.  The labelling depends only on the
    domain geometry and the strata seeds, so every process derives the
    same partition.
    """
    interner = domain.edge_interner
    n = len(interner)
    points = np.empty((n, 2), dtype=float)
    edge_of = interner.edge
    position = domain.position
    for eid in range(n):
        u, v = edge_of(eid)
        if u == EXT:
            points[eid] = position(v)
        elif v == EXT:
            points[eid] = position(u)
        else:
            ux, uy = position(u)
            vx, vy = position(v)
            points[eid] = ((ux + vx) / 2.0, (uy + vy) / 2.0)
    return strata.assign(points)


# ----------------------------------------------------------------------
# Worker side: one process-global context per pool worker
# ----------------------------------------------------------------------
_WORKER: Dict[str, object] = {}


def _worker_init(network: SensorNetwork, descriptors: Sequence[dict]) -> None:
    """Pool initializer: fresh registry + lazy per-shard engine slots.

    A forked worker inherits the parent's process-global registry
    *values*; swapping in a fresh registry before any engine is built
    makes the per-call dumps pure deltas of this worker's own work.
    """
    set_registry(MetricsRegistry())
    _WORKER.clear()
    _WORKER.update(
        network=network,
        descriptors=list(descriptors),
        engines={},
        last_dump=None,
    )


def _worker_engine(shard: int) -> QueryEngine:
    engines: Dict[int, QueryEngine] = _WORKER["engines"]
    engine = engines.get(shard)
    if engine is None:
        network: SensorNetwork = _WORKER["network"]
        form = CompiledTrackingForm.shm_attach(
            _WORKER["descriptors"][shard], network.domain.edge_interner
        )
        engine = engines[shard] = QueryEngine(network, form)
    return engine


def _worker_run(shard: int, indexed: List[Tuple[int, RangeQuery]]):
    """Execute a sub-batch on one shard; return ``(payload, dump)``:
    one ``(index, value, edges, nodes)`` row per query and the
    worker registry's delta since its previous call."""
    answers = _worker_engine(shard).execute_batch(
        [query for _, query in indexed]
    )
    payload: List[Tuple[int, float, int, int]] = []
    for (index, _), answer in zip(indexed, answers):
        if answer.missed:
            raise QueryError(
                f"shard {shard} missed a query the router answered"
            )
        payload.append((
            index, answer.value, answer.edges_accessed, answer.nodes_accessed
        ))
    current = get_registry().dump()
    dump = diff_dumps(current, _WORKER["last_dump"])
    _WORKER["last_dump"] = current
    return payload, dump


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _release(pool: list, segments: list) -> None:
    """Tear down the pool (if it started) and unlink owned segments
    (finalizer-safe)."""
    while pool:
        try:
            pool.pop().shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass
    while segments:
        destroy_segment(segments.pop())


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class ShardedQueryEngine:
    """Scatter-gather batch execution over ``shards`` district shards
    and ``workers`` processes (default: one per shard, at most one per
    usable core), with the single-process engine's exact results."""

    def __init__(
        self,
        network: SensorNetwork,
        columns: EventColumns,
        shards: int = 4,
        workers: Optional[int] = None,
    ) -> None:
        if not isinstance(columns, EventColumns):
            raise QueryError(
                "ShardedQueryEngine needs columnar events (EventColumns)"
            )
        if workers is None:
            workers = min(shards, _usable_cores())
        if shards < 2 or workers < 1:
            raise QueryError(
                "a sharded engine needs shards >= 2 and workers >= 1 "
                "(QueryEngine answers in one process)"
            )
        self.network = network
        self.shards = int(shards)
        self.workers = int(workers)
        self._registry = get_registry()
        self._bind_metrics()
        self._segments: list = []
        #: The worker pool, once started (a list the finalizer owns
        #: from the start).
        self._pool: list = []
        # Registered before the first segment is packed, and run at
        # once if the build fails: a failed construction leaves no
        # segment in /dev/shm.
        self._finalizer = weakref.finalize(
            self, _release, self._pool, self._segments
        )
        try:
            self._build(columns)
        except BaseException:
            self._finalizer()
            raise

    def _build(self, columns: EventColumns) -> None:
        """Partition the observed events into packed shard segments,
        build the region×shard route table and start the pool."""
        network = self.network
        strata = voronoi_strata(
            network.domain.bounds,
            districts=self.shards,
            rng=np.random.default_rng(0),
        )
        observed = network.observed_columns(columns)
        labels = shard_of_edges(network.domain, strata)[observed.edge_id]
        index = network.compiled_index()
        entry_region = np.repeat(
            np.arange(index.n_regions, dtype=np.int64),
            np.diff(index.rw_offsets),
        )
        self._region_shards = np.zeros(
            (index.n_regions, self.shards), dtype=bool
        )
        self.shard_events: List[int] = []
        descriptors: List[dict] = []
        for shard in range(self.shards):
            part = observed.select(np.flatnonzero(labels == shard))
            self.shard_events.append(len(part))
            form = CompiledTrackingForm(
                columns.interner, part.edge_id, part.direction, part.t
            )
            handle, descriptor = form.shm_pack(hint=f"shard{shard}")
            self._segments.append(handle)
            descriptors.append(descriptor)
            hit = np.isin(index.rw_wall_ids, np.unique(part.edge_id))
            self._region_shards[entry_region[hit], shard] = True

        #: The canonical per-query series, shared with QueryEngine.
        self._acct = QueryAccounting(None, "sharded", self)
        self._stage = PlanStage(
            CompiledQueryPlanner(network), "perimeter", NULL_TRACER
        )
        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(network, descriptors),
        )
        self._pool.append(self._executor)

    def _bind_metrics(self) -> None:
        registry = self._registry
        self._metric_batches = registry.counter(
            "repro_sharded_batches_total",
            help="Scatter-gather batches executed by sharded engines",
        )
        self._metric_scattered = registry.counter(
            "repro_sharded_subqueries_total",
            help="Per-shard sub-queries scattered to workers",
        )
        self._metric_fanout = registry.histogram(
            "repro_sharded_fanout",
            help="Shards touched per answered query",
        )
        self._metric_stage = {
            stage: registry.histogram(
                "repro_sharded_stage_seconds",
                buckets=SECONDS_BUCKETS,
                help="Scatter-gather stage wall seconds per batch",
                stage=stage,
            )
            for stage in SHARDED_STAGES
        }
        self._metric_crashes = registry.counter(
            "repro_shard_worker_crash_total",
            help="Scatter-gather batches aborted by a dead worker pool",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and unlink the shared-memory segments.

        Idempotent; also invoked by ``weakref.finalize`` on garbage
        collection and at interpreter exit, and by ``with`` blocks.
        """
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def __enter__(self) -> "ShardedQueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def describe(self) -> Dict[str, object]:
        """Shard layout summary."""
        return {
            "shards": self.shards,
            "workers": self.workers,
            "events_per_shard": list(self.shard_events),
            "segment_bytes": [s.size for s in self._segments],
            "reachable_regions_per_shard": [
                int(c) for c in self._region_shards.sum(axis=0)
            ],
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute_batch(
        self, queries: Sequence[RangeQuery]
    ) -> List[QueryResult]:
        """Scatter a battery over the touched shards and gather.

        **Ordering contract**: ``results[i]`` answers ``queries[i]``
        for every ``i`` — results are slotted by input index, so shard
        completion order (which interleaves freely under the pool)
        never reorders the output.  Results are field-identical to the
        single-process engine except for the timing fields:
        ``elapsed`` is the batch wall time divided evenly over the
        batch (per-query attribution has no meaning when k shards work
        concurrently), ``stage_s`` is the batch's one route / scatter /
        worker_wait / merge table and ``cache_hits`` is empty.
        """
        if self.closed:
            raise QueryError("sharded engine is closed")
        n, acct = len(queries), self._acct
        self._metric_batches.inc()
        pc = time.perf_counter
        start = pc()

        # The single-process batch plan: one resolution per distinct
        # (box, bound), read from the router's table.
        routed = self._stage.plan_batch(queries)
        rows = [routed.rows[p] for p in routed.pair_of]
        fanouts: List[int] = [0] * n
        #: Per scattered slot: [summed value, edges, nodes].
        merged: Dict[int, list] = {}
        per_shard: Dict[int, List[int]] = {}
        for i, row in enumerate(rows):
            regions = row[1]
            if regions is None:
                continue
            touched = np.flatnonzero(
                self._region_shards[np.asarray(regions)].any(axis=0)
            ).tolist()
            self._metric_fanout.observe(len(touched))
            fanouts[i] = len(touched)
            if touched:
                merged[i] = [0.0, 0, 0]
                for shard in touched:
                    per_shard.setdefault(shard, []).append(i)
        t_routed = pc()

        futures: Dict[object, int] = {}
        for shard, indices in per_shard.items():
            self._metric_scattered.inc(len(indices))
            try:
                future = self._executor.submit(
                    _worker_run, shard, [(i, queries[i]) for i in indices]
                )
            except BrokenProcessPool as exc:
                # An already-broken pool fails at submit time.
                raise self._worker_crashed(shard, exc) from exc
            futures[future] = shard
        t_submitted = pc()
        for future in as_completed(futures):
            try:
                payload, dump = future.result()
            except BrokenProcessPool as exc:
                raise self._worker_crashed(futures[future], exc) from exc
            self._registry.absorb(dump, skip=PARENT_ACCOUNTED_METRICS)
            for index, value, edges, nodes in payload:
                entry = merged[index]
                # Structural accounting is region-determined, hence
                # identical across shards.
                entry[:] = entry[0] + value, edges, nodes
        t_gathered = pc()

        share = (t_gathered - start) / n if n else 0.0
        # One table for the whole batch: a scattered query has no
        # private stage breakdown, and ``merge`` — which covers the
        # records below — is written once they are done.
        stage_s = {
            "route": t_routed - start,
            "scatter": t_submitted - t_routed,
            "worker_wait": t_gathered - t_submitted,
        }
        results: List[QueryResult] = []
        for i, query in enumerate(queries):
            # A query no shard can affect is answered 0, with the
            # structural accounting of its plan.
            junction_count, regions, chain, nodes = rows[i]
            value, edges, nodes = merged.get(
                i, (0.0, 0 if chain is None else len(chain), nodes or 0)
            )
            results.append(acct.record(
                query, value, regions, edges, nodes, share, stage_s,
                junction_count, {}, fanout=fanouts[i],
            ))
        acct.finish_batch(
            queries, [result.missed for result in results], ((share, n),),
            sum(r.edges_accessed for r in results),
            sum(r.nodes_accessed for r in results),
        )
        stage_s["merge"] = pc() - t_gathered
        for name, seconds in stage_s.items():
            self._metric_stage[name].observe(seconds)
        return results

    def _worker_crashed(self, shard: int, exc: BaseException) -> QueryError:
        """Account a dead worker pool and build the error to raise
        (never silent).

        The pool is unrecoverable once broken; the finalizer still owns
        segment cleanup, so callers can (and should) ``close()``.
        """
        self._metric_crashes.inc()
        log.error(
            "shard worker pool died %s",
            kv(shard=shard, error=type(exc).__name__),
        )
        return QueryError(
            f"sharded worker pool died while executing shard {shard}"
        )

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
   into K districts (:class:`~repro.mobility.Strata` Voronoi seeds, or
   caller-provided strata); every monitored wall — and therefore every
   observed event — is assigned to the district containing its
   midpoint.  Each shard's event slice is compiled into its own
   :class:`~repro.forms.CompiledTrackingForm` and packed into a
   :mod:`multiprocessing.shared_memory` segment (:mod:`repro.shm`), so
   workers attach zero-copy views instead of unpickling megabytes.
2. **Route** (per query): the parent runs the shared batch plan
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
   shard's attached form; the parent sums per-shard values (elementwise
   then ``min`` for ``static_eval="min"``, which is *not* linear and
   must be folded over the summed endpoint totals), builds every
   query's record — gathered, unreachable or missed — through the shared
   :meth:`~repro.query.pipeline.QueryAccounting.record`, **in input
   order**, and accounts the batch once through
   :meth:`~repro.query.pipeline.QueryAccounting.finish_batch`: results
   are field-identical to the single-process compiled
   planner (same values, misses, region ids and edge/sensor/hop
   accounting).  Only the timing fields (``elapsed``, ``stage_s``,
   ``cache_hits``) differ, as they describe a different execution shape.

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
``repro_sharded_stage_seconds`` histogram.

Distributed tracing: when the parent's tracer is live each worker call
records its own span tree (``worker.run`` → ``worker.attach`` plus the
inner engine's ``query.execute_batch`` resolve/integrate spans) on a
worker-local :class:`~repro.obs.Tracer`, ships it back as plain dicts
next to the metric deltas, and the parent grafts it under its
``sharded.scatter`` span.  Worker spans keep their recording pid (and
use the shard id as tid), so the Chrome-trace export draws one
swimlane per worker process; timestamps are directly comparable
because ``perf_counter`` reads the shared ``CLOCK_MONOTONIC`` under
fork.  A :class:`~repro.obs.FlightRecorder` (``flight=``) additionally
keeps every result — fan-out and the batch's stage timings are on it —
with slow queries promoted to carry the batch's grafted worker spans.

Delegation: ``shards=1``, ``workers=0`` and fault-injecting engines
run the single-process :class:`~repro.query.QueryEngine` directly —
faulty dispatch consumes the injector's per-query attempt stream,
which does not decompose over shards.

Lifecycle: the engine owns its segments and worker pool.  Use it as a
context manager or call :meth:`ShardedQueryEngine.close`; a
``weakref.finalize`` (which also registers atexit) guarantees the
``/dev/shm`` segments are unlinked even on abandoned engines or
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
from ..forms import CompiledTrackingForm, CompressedTrackingForm
from ..mobility import EXT, Strata, voronoi_strata
from ..network.faults import FaultInjector, RetryPolicy
from ..obs import (
    FlightRecorder,
    Instrumentation,
    MetricsRegistry,
    NULL_INSTRUMENTATION,
    NULL_TRACER,
    SECONDS_BUCKETS,
    QueryExplain,
    Tracer,
    build_explain,
    get_logger,
    get_registry,
    kv,
    set_registry,
)
from ..obs.metrics import diff_dumps
from ..sampling import SensorNetwork
from ..shm import destroy_segment
from ..trajectories import EventColumns
from .engine import QueryEngine, STATIC_EVAL_MODES
from .pipeline import PlanStage, QueryAccounting
from .planner import CompiledQueryPlanner
from .result import STATIC, QueryResult, RangeQuery

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


def _worker_init(
    network: SensorNetwork,
    descriptors: Sequence[dict],
    static_eval: str,
    access_mode: str,
    collect_spans: bool = False,
) -> None:
    """Pool initializer: fresh registry + lazy per-shard engine slots.

    A forked worker inherits the parent's process-global registry
    *values*; swapping in a fresh registry before any engine is built
    makes the per-call dumps pure deltas of this worker's own work.
    With ``collect_spans`` the worker also keeps a local tracer whose
    per-call span trees ship back for grafting into the parent's trace.
    """
    set_registry(MetricsRegistry())
    _WORKER.clear()
    _WORKER.update(
        network=network,
        descriptors=list(descriptors),
        static_eval=static_eval,
        access_mode=access_mode,
        tracer=Tracer() if collect_spans else NULL_TRACER,
        engines={},
        last_dump=None,
    )


class _EndpointEngine(QueryEngine):
    """A shard's engine under ``static_eval="min"``: ``min`` does not
    distribute over the shard sum, so a static query's value stays the
    ``(start, end)`` pair of cumulative nets — both from one touch of
    the chain — and the parent folds ``min`` over the summed pairs."""

    @staticmethod
    def _fold(transient, two, last, first) -> list:
        return [
            end - start if flow else (start, end)
            for flow, end, start in zip(
                transient.tolist(), last.tolist(), first.tolist()
            )
        ]


def _worker_engine(shard: int) -> QueryEngine:
    engines: Dict[int, QueryEngine] = _WORKER["engines"]
    engine = engines.get(shard)
    if engine is None:
        network: SensorNetwork = _WORKER["network"]
        descriptor = _WORKER["descriptors"][shard]
        static_eval = str(_WORKER["static_eval"])
        # Compressed shards pack the succinct wire format and
        # self-identify via "form".
        form = (
            CompressedTrackingForm
            if descriptor.get("form") == "compressed"
            else CompiledTrackingForm
        ).shm_attach(descriptor, network.domain.edge_interner)
        kind = _EndpointEngine if static_eval == "min" else QueryEngine
        engine = engines[shard] = kind(
            network,
            form,
            access_mode=str(_WORKER["access_mode"]),
            static_eval=static_eval,
            planner="compiled",
            instrumentation=Instrumentation(tracer=_WORKER["tracer"]),
        )
    return engine


def _worker_run(shard: int, indexed: List[Tuple[int, RangeQuery]]):
    """Execute a sub-batch on one shard; return
    ``(shard, payload, dump, spans)``.

    Payload rows are ``(index, partial_values, edges, nodes)`` where
    ``partial_values`` has two entries — the start/end snapshot sums —
    for static queries under ``static_eval="min"`` (min does not
    distribute over the shard sum; the parent folds it over the summed
    endpoint totals) and one entry otherwise.

    With tracing on, the call records ``worker.run`` → ``worker.attach``
    plus the inner engine's batch spans (resolve fills and per-query
    ``query.integrate``) on the worker-local tracer, then ships the new
    roots back as dicts stamped with this pid (tid = shard id + 1) and
    prunes them — the worker tracer never grows across calls.
    """
    queries = [query for _, query in indexed]
    tracer = _WORKER["tracer"]
    roots_before = len(tracer.roots)
    payload: List[Tuple[int, Tuple[float, ...], int, int]] = []
    with tracer.span(
        "worker.run", shard=shard, queries=len(queries), pid=os.getpid()
    ):
        with tracer.span("worker.attach", shard=shard):
            engine = _worker_engine(shard)
        answers = engine.execute_batch(queries)
        for (index, _), answer in zip(indexed, answers):
            if answer.missed:
                raise QueryError(
                    f"shard {shard} missed a query the router answered"
                )
            value = answer.value
            payload.append((
                index,
                value if isinstance(value, tuple) else (value,),
                answer.edges_accessed,
                answer.nodes_accessed,
            ))
    current = get_registry().dump()
    dump = diff_dumps(current, _WORKER["last_dump"])
    _WORKER["last_dump"] = current
    spans = None
    if tracer.enabled:
        pid = os.getpid()
        spans = [
            root.to_dict(pid, shard + 1)
            for root in tracer.roots[roots_before:]
        ]
        del tracer.roots[roots_before:]
    return shard, payload, dump, spans


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _release(executor: Optional[ProcessPoolExecutor], segments: list) -> None:
    """Tear down a pool and unlink owned segments (finalizer-safe)."""
    if executor is not None:
        try:
            executor.shutdown(wait=True, cancel_futures=True)
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
    """Scatter-gather query execution over K district shards.

    Drop-in for the read surface of :class:`~repro.query.QueryEngine`
    (``execute`` / ``execute_many`` / ``execute_batch``) with exact
    results; built for *batch* traffic — single queries pay the
    scatter round trip.
    """

    def __init__(
        self,
        network: SensorNetwork,
        columns: EventColumns,
        shards: int = 4,
        workers: Optional[int] = None,
        strata: Optional[Strata] = None,
        access_mode: str = "perimeter",
        static_eval: str = "end",
        instrumentation: Optional[Instrumentation] = None,
        faults: Optional[FaultInjector] = None,
        dispatch_strategy: str = "perimeter_walk",
        retry_policy: Optional[RetryPolicy] = None,
        store=None,
        seed: int = 0,
        flight: Optional[FlightRecorder] = None,
        compress: bool = False,
        tick_bits: int = 0,
    ) -> None:
        if not isinstance(columns, EventColumns):
            raise QueryError(
                "ShardedQueryEngine needs columnar events (EventColumns)"
            )
        if strata is not None:
            shards = strata.count
        if shards < 1:
            raise QueryError("shards must be >= 1")
        if static_eval not in STATIC_EVAL_MODES:
            raise QueryError(f"unknown static_eval {static_eval!r}")
        self.network = network
        self.shards = int(shards)
        self.access_mode = access_mode
        self.static_eval = static_eval
        self.compress = bool(compress)
        self.tick_bits = int(tick_bits)
        self.obs = (
            instrumentation
            if instrumentation is not None
            else NULL_INSTRUMENTATION
        )
        self.flight = flight
        #: Data version of the source store at partition time (the
        #: shards are a snapshot of exactly that version); ``None``
        #: for static build-once stores.
        self.generation = getattr(store, "generation", None)
        self._registry = get_registry()
        self._bind_metrics()

        if workers is None:
            workers = min(self.shards, max(_usable_cores(), 1))
        self.workers = max(int(workers), 0)

        self._segments: list = []
        self._executor: Optional[ProcessPoolExecutor] = None
        self._delegate: Optional[QueryEngine] = None

        # Paths that cannot (faults) or should not (a single shard, no
        # workers) fan out run the stock single-process engine over the
        # full form — same network, same store semantics, zero IPC.
        if faults is not None or self.shards == 1 or self.workers == 0:
            self._delegate = QueryEngine(
                network,
                store
                if store is not None
                else network.build_form(
                    columns, compress=compress, tick_bits=tick_bits
                ),
                access_mode=access_mode,
                static_eval=static_eval,
                instrumentation=instrumentation,
                faults=faults,
                dispatch_strategy=dispatch_strategy,
                retry_policy=retry_policy,
                flight=flight,
            )
            self._finalizer = weakref.finalize(
                self, _release, None, self._segments
            )
            return

        if strata is None:
            strata = voronoi_strata(
                network.domain.bounds,
                districts=self.shards,
                rng=np.random.default_rng(seed),
            )
        self.strata = strata

        tracer = self.obs.tracer
        with tracer.span("sharded.partition", shards=self.shards):
            observed = network.observed_columns(columns)
            labels = shard_of_edges(network.domain, strata)[observed.edge_id]
            self.shard_events: List[int] = []
            shard_edge_ids: List[np.ndarray] = []
            descriptors: List[dict] = []
            for shard in range(self.shards):
                part = observed.select(np.flatnonzero(labels == shard))
                self.shard_events.append(len(part))
                shard_edge_ids.append(np.unique(part.edge_id))
                arrays = (columns.interner, part.edge_id, part.direction, part.t)
                if self.compress:
                    form = CompressedTrackingForm(
                        *arrays, tick_bits=self.tick_bits
                    )
                else:
                    form = CompiledTrackingForm(*arrays)
                handle, descriptor = form.shm_pack(hint=f"shard{shard}")
                self._segments.append(handle)
                descriptors.append(descriptor)

        #: The canonical per-query series, shared with QueryEngine.
        self._acct = QueryAccounting(flight, "sharded", self)
        with tracer.span("sharded.route_table"):
            self._planner = CompiledQueryPlanner(network)
            #: The router runs the plan stage silently (one
            #: ``sharded.route`` span per batch, not one per step).
            self._stage = PlanStage(self._planner, access_mode, NULL_TRACER)
            index = network.compiled_index()
            entry_region = np.repeat(
                np.arange(index.n_regions, dtype=np.int64),
                np.diff(index.rw_offsets),
            )
            region_shards = np.zeros(
                (index.n_regions, self.shards), dtype=bool
            )
            for shard, edge_ids in enumerate(shard_edge_ids):
                hit = np.isin(index.rw_wall_ids, edge_ids)
                region_shards[entry_region[hit], shard] = True
            self._region_shards = region_shards

        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(
                network,
                descriptors,
                static_eval,
                access_mode,
                self.obs.tracer.enabled,
            ),
        )
        self._finalizer = weakref.finalize(
            self, _release, self._executor, self._segments
        )

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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def domain(self):
        return self.network.domain

    @property
    def planner_in_use(self) -> str:
        if self._delegate is not None:
            return self._delegate.planner_in_use
        return "sharded"

    def describe(self) -> Dict[str, object]:
        """Shard layout summary (CLI and docs)."""
        if self._delegate is not None:
            return {
                "mode": "delegated",
                "shards": 1,
                "workers": 0,
                "planner": self._delegate.planner_in_use,
            }
        return {
            "mode": "sharded",
            "shards": self.shards,
            "workers": self.workers,
            "compress": self.compress,
            "events_per_shard": list(self.shard_events),
            "segment_bytes": [s.size for s in self._segments],
            "reachable_regions_per_shard": [
                int(c) for c in self._region_shards.sum(axis=0)
            ],
        }

    def explain(self, query: RangeQuery) -> QueryExplain:
        """EXPLAIN one query through the scatter path.

        Parity with :meth:`~repro.query.QueryEngine.explain`: the query
        *runs*, and the plan is its record — the parent's routing
        resolution, the merged shard accounting, the per-stage wall
        times and the shard fan-out.  Engines that collapsed to a
        single process delegate to the stock EXPLAIN.
        """
        if self._delegate is not None:
            return self._delegate.explain(query)
        return build_explain(self, self.execute(query))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: RangeQuery) -> QueryResult:
        """One query through the scatter path (batch traffic amortises
        the round trip; prefer :meth:`execute_batch`)."""
        return self.execute_batch([query])[0]

    def execute_many(
        self, queries: Sequence[RangeQuery]
    ) -> List[QueryResult]:
        """Alias of :meth:`execute_batch`: the scatter path is always
        batched, and the two produce identical result fields."""
        return self.execute_batch(queries)

    def execute_batch(
        self, queries: Sequence[RangeQuery]
    ) -> List[QueryResult]:
        """Scatter a battery over the touched shards and gather.

        **Ordering contract**: ``results[i]`` answers ``queries[i]``
        for every ``i`` — results are slotted by input index, so shard
        completion order (which interleaves freely under the pool)
        never reorders the output.  Results are field-identical to the
        single-process compiled planner except for the timing fields:
        ``elapsed`` is the batch wall time divided evenly over the
        batch (per-query attribution has no meaning when k shards work
        concurrently), ``stage_s`` is the batch's one route / scatter /
        worker_wait / merge table and ``cache_hits`` is empty.
        """
        if self._delegate is not None:
            return self._delegate.execute_batch(queries)
        if self.closed:
            raise QueryError("sharded engine is closed")
        n = len(queries)
        tracer = self.obs.tracer
        acct, stage = self._acct, self._stage
        self._metric_batches.inc()
        pc = time.perf_counter
        start = pc()

        fanouts: List[int] = [0] * n
        #: Per scattered slot: [summed partial values, edges, nodes].
        merged: Dict[int, list] = {}
        per_shard: Dict[int, List[int]] = {}

        with tracer.span(
            "query.execute_sharded", queries=n, shards=self.shards
        ):
            with tracer.span("sharded.route", queries=n):
                # The single-process batch plan: one resolution per
                # distinct (box, bound), read from the router's table.
                routed = stage.plan_batch(queries)
                rows = [routed.rows[p] for p in routed.pair_of]
                for i, query in enumerate(queries):
                    regions = rows[i][1]
                    if regions is None:
                        continue
                    touched = np.flatnonzero(
                        self._region_shards[np.asarray(regions)].any(axis=0)
                    )
                    self._metric_fanout.observe(len(touched))
                    fanouts[i] = len(touched)
                    if not len(touched):
                        continue
                    two_ended = (
                        self.static_eval == "min" and query.kind == STATIC
                    )
                    merged[i] = [[0.0] * (2 if two_ended else 1), 0, 0]
                    for shard in touched.tolist():
                        per_shard.setdefault(shard, []).append(i)

            t_routed = pc()
            # The scatter span wraps submission *and* the gather wait so
            # the grafted worker spans fall inside their parent interval;
            # stage metrics split the two ("scatter" = submission cost,
            # "worker_wait" = time until the last sub-batch returned).
            batch_spans: List[dict] = []
            with tracer.span(
                "sharded.scatter", subbatches=len(per_shard)
            ) as scatter_span:
                futures: Dict[object, int] = {}
                for shard, indices in per_shard.items():
                    self._metric_scattered.inc(len(indices))
                    try:
                        future = self._executor.submit(
                            _worker_run,
                            shard,
                            [(i, queries[i]) for i in indices],
                        )
                    except BrokenProcessPool as exc:
                        # An already-broken pool fails at submit time.
                        raise self._worker_crashed(shard, exc) from exc
                    futures[future] = shard
                t_submitted = pc()
                with tracer.span("sharded.gather", subbatches=len(futures)):
                    for future in as_completed(futures):
                        try:
                            outcome = future.result()
                        except BrokenProcessPool as exc:
                            raise self._worker_crashed(
                                futures[future], exc
                            ) from exc
                        self._absorb(outcome, merged, scatter_span, batch_spans)
            t_gathered = pc()

            share = (t_gathered - start) / n if n else 0.0
            # One table for the whole batch: a scattered query has no
            # private stage breakdown, and ``merge`` — which covers the
            # finishes below — is written once they are done.
            stage_s = {
                "route": t_routed - start,
                "scatter": t_submitted - t_routed,
                "worker_wait": t_gathered - t_submitted,
            }
            detail: Dict[str, object] = {"shards": self.shards}
            if batch_spans:
                detail["spans"] = batch_spans
            results: List[QueryResult] = []
            for i, query in enumerate(queries):
                # A query no shard can affect is answered 0, with the
                # structural accounting of its plan.
                junction_count, regions, chain, nodes = rows[i]
                value, edges, nodes = 0.0, 0 if chain is None else len(chain), nodes or 0
                if i in merged:
                    acc, edges, nodes = merged[i]
                    value = float(min(acc))
                results.append(acct.record(
                    query, value, regions, edges, nodes, share, stage_s,
                    junction_count, {}, fanout=fanouts[i], detail=detail,
                ))
            acct.finish_batch(
                queries, [result.missed for result in results], ((share, n),),
                sum(r.edges_accessed for r in results), sum(r.nodes_accessed for r in results),
            )
            stage_s["merge"] = pc() - t_gathered
            for name, seconds in stage_s.items():
                self._metric_stage[name].observe(seconds)
        assert len(results) == n and all(
            result.query is query
            for result, query in zip(results, queries)
        ), "sharded gather broke the input-order result contract"
        return results

    def _absorb(self, outcome, merged, scatter_span, batch_spans) -> None:
        """Fold what one worker call returned into the batch: partial
        values, metric deltas and span trees."""
        _, payload, dump, spans = outcome
        if spans:
            batch_spans.extend(spans)
            self.obs.tracer.graft(spans, under=scatter_span)
        self._registry.absorb(dump, skip=PARENT_ACCOUNTED_METRICS)
        for index, values, edges, nodes in payload:
            entry = merged[index]
            # Structural accounting is region-determined, hence
            # identical across shards.
            entry[:] = [a + b for a, b in zip(entry[0], values)], edges, nodes

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

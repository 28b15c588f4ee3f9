"""The one query pipeline: plan → answer → finish (§4.6-4.7).

Every executor — :meth:`QueryEngine.execute`,
:meth:`QueryEngine.execute_batch` and the sharded scatter-gather —
runs the same three stages; this module holds the two that do not
depend on where the events live:

**plan** (:class:`PlanStage`)
    rectangle → junction set ``R`` → region approximation (R1/R2) →
    boundary chain → sensors, written once over whichever planner the
    engine holds.  A plan depends on the box, the bound and the
    deployed network only — never on the events — so every engine
    keeps one bounded LRU **plan table** keyed by ``(box, bound)``,
    and every plan step reads it first: a pair any earlier call
    planned plans nothing.  A pair the table lacks runs each step
    cold, under its ``query.<phase>`` span (:meth:`PlanStage.plan`).
    A batch is planned as a whole (:meth:`PlanStage.plan_batch`): the
    distinct boxes, ``(box, bound)`` pairs and region tuples the table
    lacks are each resolved once through the planner's batch surface —
    four steps for the whole batch, each under one
    ``batch.fill.<table>`` span — into a :class:`BatchPlan`, which
    hands every query its :class:`QueryPlan` and applies the
    attribution rule (a row's first use since the engine was built =
    fill, every later one = hit; plan seconds metered out of every
    ``elapsed``).  The sharded router plans the same way, silently,
    stops after the regions and writes no row.

**finish** (:meth:`QueryAccounting.finish`)
    turns a planned, answered query into its metrics and its one
    record — the :class:`~repro.query.QueryResult`, which carries the
    answer, the measured internals and the stage times, and which the
    flight recorder keeps as it is — for answered, missed,
    sketch-served, degraded and gathered queries alike.
    :class:`QueryAccounting` binds the canonical series once at
    construction; both engines hold one.

The **answer** stage (sketch tier or store integration, plus the
fault dispatch) lives with the store, in :mod:`repro.query.engine`.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..network.simulator import DEGRADATION_BUCKETS
from ..obs import (
    FlightRecorder,
    SECONDS_BUCKETS,
    get_registry,
    memory_snapshot,
)
from .result import QueryDegradation, QueryResult, RangeQuery

#: Plan steps in order: plan table → cold span / phase name.
PLAN_PHASES = {
    "junctions": "resolve_junctions",
    "regions": "approximate_region",
    "boundary": "build_boundary",
    "sensors": "account_sensors",
}

#: Rows an engine's plan table keeps, the least recently used leaving
#: first — on the boundary LRU's reasoning, 2.5× the few hundred
#: ``(box, bound)`` pairs a dashboard replays.  A row a batch planned
#: holds a view of that batch's chains, so those stay alive as long as
#: any of its rows does.
PLAN_TABLE_ROWS = 1024

_TABLES = tuple(PLAN_PHASES)
_ROUTING = ("junctions", "regions")
_NO_ATTRS: Dict[str, object] = {}


def _tables(plan: "QueryPlan", served: bool) -> Tuple[str, ...]:
    """The plan tables a query uses: the junctions always, the regions
    when its box holds a junction, the chain when it is answered and
    the sensors unless the sketch served it."""
    answered = plan.regions is not None
    return _TABLES[: 1 + bool(plan.junction_count) + answered * (2 - served)]


class QueryPlan:
    """What one query resolved to, and what resolving it cost."""

    __slots__ = (
        "junction_count", "regions", "chain", "edges", "sensors", "nodes",
        "row", "hits", "shared", "stage_s",
    )

    def __init__(self) -> None:
        self.junction_count = 0
        #: Sorted region tuple; ``None`` when no approximation exists
        #: (§5.5: the query is a miss).
        self.regions: Optional[Tuple[int, ...]] = None
        #: The boundary chain (single queries only; a batch keeps its
        #: chains in one :class:`BatchPlan` container) and its length.
        self.chain = None
        self.edges = 0
        #: Planner-native sensor ids (resolved only when counted or
        #: dispatched to) and how many a dispatch contacts.
        self.sensors = ()
        self.nodes = 0
        #: The plan-table row behind a single query's plan.
        self.row: Optional[list] = None
        #: Per-table hit flags (empty on a single query's first plan).
        self.hits: Dict[str, bool] = {}
        #: Shared fill seconds this query triggered in its batch.
        self.shared = 0.0
        self.stage_s: Dict[str, float] = {}


class BatchPlan:
    """The plan of a whole batch, one row per distinct key: the boxes,
    ``(box, bound)`` pairs and boundary chains the plan table lacks are
    each resolved once, whichever queries share them.

    :meth:`query_plan` hands a query its :class:`QueryPlan` and applies
    the attribution rule: the first user of a row the batch *filled* is
    charged that table's seconds per row (``shared``); every later
    user, and every user of a row the plan table held already, *hits*.
    ``counters`` (``(table, hit) → Counter``) switches the accounting
    on; without it the plan only resolves (the sharded router).
    """

    def __init__(self, counters=None) -> None:
        self.counters = counters
        #: Per query: its pair.  Per pair: its plan-table row, its box
        #: and pair rows among the batch's fills (``(None, None)``: the
        #: table held the pair) and its chain row (-1 without one).
        self.pair_of: List[int] = []
        self.rows: List[list] = []
        self.fills: List[Tuple[Optional[int], Optional[int]]] = []
        self.chain_of: List[int] = []
        #: Per chain: the planner's batch container, and sensors a
        #: dispatch over it contacts.
        self.chains = ()
        self.nodes: List[int] = []
        #: Per table: seconds a fill of one row is charged, and the
        #: rows no longer to fill (used in the batch, or held before).
        self.share: Dict[str, float] = {}
        self.seen: Dict[str, set] = {name: set() for name in PLAN_PHASES}
        #: Plan seconds in all (metered out of every ``elapsed``).
        self.fill_s = 0.0

    def query_plan(self, i: int, served: bool = False) -> Tuple[QueryPlan, int]:
        """Query ``i``'s plan and chain row; ``served`` (from the
        sketch) skips the sensor table."""
        pair = self.pair_of[i]
        row = self.chain_of[pair]
        plan = QueryPlan()
        plan.junction_count, plan.regions, chain, _ = self.rows[pair]
        plan.edges = 0 if chain is None else len(chain)
        if self.counters is not None:
            keys = (*self.fills[pair], row, row)
            for table, key in zip(_tables(plan, served), keys):
                self._use(plan, table, key)
        return plan, row

    def _use(self, plan: QueryPlan, table: str, row: Optional[int]) -> None:
        """Account one use of ``row`` (``None``: the plan table's)."""
        seen = self.seen[table]
        hit = row is None or row in seen
        fill = 0.0
        if not hit:
            seen.add(row)
            fill = self.share[table]
        plan.hits[table] = hit
        self.counters[table, hit].inc()
        plan.shared += fill
        if table in _ROUTING and row is not None:
            # A query the batch planned reports its two routing phases
            # (0.0 on a hit); chain and sensor fills count towards
            # ``shared`` alone.
            plan.stage_s[PLAN_PHASES[table]] = fill


class PlanStage:
    """junctions → regions → chain → sensors, over one planner and the
    engine's plan table: one query at a time (:meth:`plan`,
    :meth:`sensors`) or every distinct key of a batch at once
    (:meth:`plan_batch`)."""

    def __init__(self, planner, access_mode: str, tracer) -> None:
        self.planner = planner
        self.tracer = tracer
        self._flood = access_mode == "flood"
        self._mode = {"mode": access_mode}
        #: ``(box, bound)`` → ``[junction count, region tuple (None: a
        #: miss), chain, sensors (None until counted)]``, the least
        #: recently used first.
        self.table: "OrderedDict[tuple, list]" = OrderedDict()

    def _keep(self, key, row: Optional[list] = None) -> Optional[list]:
        """``key``'s row, made the most recently used: ``row`` entered
        (the least recently used one leaving past the cap), else the
        one the table holds — ``None`` if it holds none."""
        row = self.table.get(key) if row is None else row
        if row is not None:
            self.table[key] = row
            self.table.move_to_end(key)
            if len(self.table) > PLAN_TABLE_ROWS:
                self.table.popitem(last=False)
        return row

    def plan(self, query: RangeQuery) -> QueryPlan:
        """Steps 1-3 of one query: its plan-table row, else — cold —
        the junction set, its region approximation and their boundary
        chain, stopping at the first step that proves the query a miss,
        and the row they make."""
        key = (query.box, query.bound)
        plan = QueryPlan()
        row = plan.row = self._keep(key)
        if row is not None:
            plan.junction_count, plan.regions, plan.chain, _ = row
            plan.edges = 0 if plan.chain is None else len(plan.chain)
            plan.hits = dict.fromkeys(_tables(plan, True), True)
            return plan
        planner, bound = self.planner, query.bound
        junctions = self._resolve(
            plan, "junctions", _NO_ATTRS, planner.junction_ids, query.box
        )
        plan.junction_count = len(junctions)
        if plan.junction_count:
            regions = plan.regions = self._resolve(
                plan, "regions", {"bound": bound},
                planner.region_ids, junctions, bound,
            )
            if regions is not None:
                plan.chain = self._resolve(
                    plan, "boundary", {"regions": len(regions)},
                    planner.boundary, regions,
                )
                plan.edges = len(plan.chain)
        row = [plan.junction_count, plan.regions, plan.chain, None]
        plan.row = self._keep(key, row)
        return plan

    def sensors(self, plan: QueryPlan, served: bool = False, ids=False) -> None:
        """Step 4: the sensors a dispatch over the chain contacts — their
        count from the plan table when it holds one and the ids are not
        needed (``ids``: a fault-injecting engine dispatches to them).
        A query ``served`` from the server-side sketch contacts none; a
        cold one reports its — empty — accounting phase."""
        row, hits = plan.row, plan.hits
        if hits and not served:  # planned from the table
            hits["sensors"] = row[3] is not None and not ids
        if hits and (served or hits["sensors"]):
            plan.nodes = 0 if served else row[3]
            return
        planner = self.planner
        if served:
            compute, args = tuple, ()
        elif self._flood:
            compute, args = planner.flood_sensors, (plan.regions,)
        else:
            compute, args = planner.chain_sensors, (plan.chain,)
        plan.sensors = self._resolve(
            plan, "sensors", self._mode, compute, *args
        )
        plan.nodes = len(plan.sensors)
        row[3] = row[3] if served else plan.nodes

    def _resolve(self, plan, table, attrs, compute, *args):
        """One cold plan step under its ``query.<phase>`` span."""
        phase = PLAN_PHASES[table]
        value, plan.stage_s[phase] = self.timed(
            "query." + phase, attrs, compute, *args
        )
        return value

    def timed(self, span, attrs, compute, *args):
        """``(compute(*args), seconds)``.  Spans are opened only on a
        live tracer: entering and leaving the null span would cost
        three calls per step for nothing."""
        pc = time.perf_counter
        tracer = self.tracer
        t0 = pc()
        if tracer.enabled:
            with tracer.span(span, **attrs):
                value = compute(*args)
        else:
            value = compute(*args)
        return value, pc() - t0

    def plan_batch(
        self, queries: Sequence[RangeQuery], counters=None, chain: bool = True
    ) -> BatchPlan:
        """Plan a batch: dedupe to distinct ``(box, bound)`` pairs, read
        each from the plan table, resolve the others — each distinct box
        and pair once, through the planner's batch surface, each step
        under one ``batch.fill.<table>`` span — and dedupe the region
        tuples to distinct chains.  Unless the caller only routes
        (``chain=False``), build the chains and count the sensors no row
        holds yet, and write the planned pairs to the table."""
        planner, batch = self.planner, BatchPlan(counters)
        # Rows are numbered by first use: a dict keeps insertion order.
        pairs: Dict[tuple, int] = {}
        batch.pair_of = [
            pairs.setdefault((query.box, query.bound), len(pairs))
            for query in queries
        ]
        rows = batch.rows = [self._keep(key) for key in pairs]
        new = [(p, key) for p, key in enumerate(pairs) if rows[p] is None]
        boxes: Dict[object, int] = {}
        fills = batch.fills = [(None, None)] * len(rows)
        for p, (box, _) in new:
            fills[p] = boxes.setdefault(box, len(boxes)), p
        if new:
            found, counts = self._fill(
                batch, "junctions", len(boxes), planner.batch_junctions, list(boxes)
            )
            regions = self._fill(
                batch, "regions", len(new), planner.batch_regions, found,
                [fills[p][0] for p, _ in new], [bound for _, (_, bound) in new],
            )
            for (p, _), selected in zip(new, regions):
                rows[p] = [counts[fills[p][0]], selected, None, None]
        distinct: Dict[Tuple[int, ...], int] = {}
        batch.chain_of = [
            -1 if row[1] is None else distinct.setdefault(row[1], len(distinct))
            for row in rows
        ]
        if chain:
            self._chains(batch, list(distinct))
            for p, key in new:
                self._keep(key, rows[p])
        return batch

    def _chains(self, batch: BatchPlan, distinct: list) -> None:
        """Steps 3-4 over the batch's distinct region tuples: chain and
        sensor count from a row that holds them, the others filled —
        after which every row of the batch is complete."""
        planner, n = self.planner, len(distinct)
        chains, nodes = [None] * n, [None] * n
        for row, c in zip(batch.rows, batch.chain_of):
            if c >= 0 and row[2] is not None:
                chains[c], nodes[c] = row[2], row[3]
        todo = [c for c in range(n) if chains[c] is None]
        batch.seen["boundary"].update(set(range(n)) - set(todo))
        batch.seen["sensors"].update(c for c in range(n) if nodes[c] is not None)
        if todo:
            built = self._fill(
                batch, "boundary", len(todo), planner.batch_chains,
                [distinct[c] for c in todo],
            )
            for k, c in enumerate(todo):
                chains[c] = built[k]
        # With no chain held, the fill's own container is the batch's.
        fresh = todo and len(todo) == n
        batch.chains = built if fresh else planner.join_chains(chains)
        if None in nodes:  # one count per chain of the batch
            nodes = self._fill(
                batch, "sensors", n, self._batch_sensors, batch.chains, distinct
            )
        batch.nodes = nodes
        for row, c in zip(batch.rows, batch.chain_of):
            if c >= 0:
                row[2:] = chains[c], nodes[c]

    def _fill(self, batch: BatchPlan, table: str, rows: int, compute, *args):
        """One batch step over ``rows`` rows of ``table``, timed."""
        value, seconds = self.timed(
            "batch.fill." + table, {"rows": rows}, compute, *args
        )
        batch.share[table] = seconds / max(rows, 1)
        batch.fill_s += seconds
        return value

    def _batch_sensors(self, chains, regions) -> List[int]:
        if self._flood:
            flood = self.planner.flood_sensors
            return [len(flood(selected)) for selected in regions]
        return self.planner.batch_sensors(chains)


class QueryAccounting:
    """The canonical per-query series and the flight recorder, bound
    once per engine; :meth:`finish` is the only place a
    :class:`~repro.query.QueryResult` — the one record of a query — is
    built."""

    def __init__(
        self, flight: Optional[FlightRecorder], planner: str, source: object
    ) -> None:
        self.flight = flight
        #: Executor label of the records.
        self.planner = planner
        #: Whatever holds the events: its ``generation`` (the data
        #: version; absent on static stores) is read per record.
        self.source = source
        #: Metrics go to the registry current at construction time.
        registry = self.registry = get_registry()
        self.sensors = registry.counter(
            "repro_query_sensors_accessed_total",
            help="Communication sensors contacted by answered queries",
        )
        self.edges = registry.counter(
            "repro_query_edges_accessed_total",
            help="Boundary walls integrated by answered queries",
        )
        self.seconds = registry.counter(
            "repro_query_seconds_total",
            help="Wall seconds spent executing queries",
        )
        self.latency = registry.histogram(
            "repro_query_latency_seconds",
            buckets=SECONDS_BUCKETS,
            help="Per-query wall time (answered and missed)",
        )
        self.fill_seconds = registry.counter(
            "repro_query_batch_fill_seconds_total",
            help="Shared cache-fill seconds metered out of per-query "
            "elapsed times in execute_batch",
        )
        self.batch_cache = {
            (table, hit): registry.counter(
                "repro_query_batch_cache_total",
                help="Batch shared-structure cache hits and fills",
                cache=table,
                outcome="hit" if hit else "fill",
            )
            for table in PLAN_PHASES
            for hit in (True, False)
        }
        self.sketch = {
            hit: registry.counter(
                "repro_sketch_queries_total",
                help="Sketch fast-path attempts by outcome",
                outcome="hit" if hit else "fallback",
            )
            for hit in (True, False)
        }
        #: (kind, bound) → (queries, misses) counters, and strategy →
        #: (degraded, lost share, error bound) series: label values
        #: arrive with the traffic, so each set is bound on first use.
        self._by_class: Dict[Tuple[str, str], tuple] = {}
        self._by_strategy: Dict[str, tuple] = {}

    def _class_counters(self, query: RangeQuery) -> tuple:
        pair = self._by_class.get((query.kind, query.bound))
        if pair is None:
            counter = self.registry.counter
            pair = self._by_class[query.kind, query.bound] = (
                counter(
                    "repro_queries_total",
                    help="Queries executed, by kind and bound",
                    kind=query.kind,
                    bound=query.bound,
                ),
                counter(
                    "repro_query_misses_total",
                    help="Queries with no region approximation, by kind "
                    "and bound",
                    kind=query.kind,
                    bound=query.bound,
                ),
            )
        return pair

    def count_query(self, query: RangeQuery) -> None:
        self._class_counters(query)[0].inc()

    def _record_degradation(self, degradation: QueryDegradation) -> None:
        strategy = degradation.strategy
        series = self._by_strategy.get(strategy)
        if series is None:
            registry = self.registry
            series = self._by_strategy[strategy] = (
                registry.counter(
                    "repro_query_degraded_total",
                    help="Answered queries that lost part of their "
                    "boundary aggregate to faults",
                    strategy=strategy,
                ),
                registry.histogram(
                    "repro_query_degradation",
                    buckets=DEGRADATION_BUCKETS,
                    help="Lost share of the boundary chain per degraded "
                    "query",
                    strategy=strategy,
                ),
                registry.histogram(
                    "repro_query_degradation_bound",
                    help="Absolute count-error bound of degraded queries",
                    strategy=strategy,
                ),
            )
        degraded, lost_share, error_bound = series
        if degradation.lost_walls:
            degraded.inc()
        lost_share.observe(degradation.lost_fraction)
        if math.isfinite(degradation.error_bound):
            error_bound.observe(degradation.error_bound)

    def finish(
        self,
        query: RangeQuery,
        plan: QueryPlan,
        value: float,
        elapsed: float,
        stage_s: Dict[str, float],
        edges: int = 0,
        nodes: int = 0,
        degradation: Optional[QueryDegradation] = None,
        approximate: bool = False,
        fanout: int = 0,
        detail: Optional[Dict[str, object]] = None,
    ) -> QueryResult:
        """Account one executed query and build its record.

        ``plan.regions is None`` marks a miss.  Missed queries consume
        wall time too and are charged into the same seconds/latency
        series as answered ones, so the per-query mean the figures
        report covers the whole battery.  ``stage_s`` goes onto the
        record by reference: a scattered batch shares one table and
        writes its ``merge`` entry after the last finish.  ``detail``
        is the executor's extra payload for a slow-query promotion.
        """
        regions = plan.regions
        missed = regions is None
        if missed:
            regions = ()
            self._class_counters(query)[1].inc()
        else:
            self.sensors.inc(nodes)
            self.edges.inc(edges)
            if degradation is not None:
                self._record_degradation(degradation)
        if plan.shared:
            self.fill_seconds.inc(plan.shared)
        self.seconds.inc(elapsed)
        self.latency.observe(elapsed)
        result = QueryResult(
            query=query,
            value=value,
            missed=missed,
            regions=regions,
            edges_accessed=edges,
            nodes_accessed=nodes,
            hops=edges,
            elapsed=elapsed,
            approximate=approximate,
            degradation=degradation,
            planner=self.planner,
            junction_count=plan.junction_count,
            stage_s=stage_s,
            cache_hits=plan.hits,
            shared_fill_s=plan.shared,
            fanout=fanout,
            generation=getattr(self.source, "generation", None),
        )
        if self.flight is not None and self.flight.keep(result):
            self._promote(result, detail)
        return result

    def _promote(self, result: QueryResult, detail) -> None:
        """Attach to a slow record the evidence at hand (never
        recomputed): the executor's ``detail``, the internals under
        the keys flight-log readers know, and the memory watermarks —
        two O(1) reads, never taken for fast traffic."""
        promoted: Dict[str, object] = {
            "stage_s": result.stage_s,
            **(detail or {}),
            "provenance": {
                "planner": result.planner,
                "junction_count": result.junction_count,
                "region_ids": list(result.regions),
                "boundary_length": result.boundary_length,
                "sensors_accessed": result.nodes_accessed,
                "cache_served": result.cache_served,
                "cache_hits": result.cache_hits,
                "shared_fill_s": result.shared_fill_s,
            },
        }
        snapshot = memory_snapshot()
        result.peak_rss_bytes = snapshot["peak_rss_bytes"]
        result.alloc_peak_bytes = snapshot["alloc_peak_bytes"]
        result.detail = promoted

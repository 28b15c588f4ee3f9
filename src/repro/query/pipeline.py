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
    The table is keyed by a plain tuple (:func:`plan_key`: the box's
    four floats and the bound), which hashes in C.  A batch is planned
    as a whole (:meth:`PlanStage.plan_batch`): the distinct boxes,
    ``(box, bound)`` pairs and region tuples the table lacks are each
    resolved once through the planner's batch surface — four steps
    for the whole batch, each under one ``batch.fill.<table>`` span —
    into a :class:`BatchPlan`, which applies the attribution rule to
    the whole batch at once (:meth:`BatchPlan.attribute`: a row's
    first use since the engine was built = fill, every later one =
    hit; plan seconds metered out of every ``elapsed``).  The sharded
    router plans the same way, silently.

**finish** (:class:`QueryAccounting`)
    records per query, accounting per batch.  :meth:`~QueryAccounting.record`
    builds a query's one record — the :class:`~repro.query.QueryResult`,
    which carries the answer, the measured internals and the stage
    times, and which the flight recorder keeps as it is — for
    answered, missed, sketch-served, degraded and gathered queries
    alike; :meth:`~QueryAccounting.finish` accounts one query and
    :meth:`~QueryAccounting.finish_batch` a whole batch, once per
    series and label set.  :class:`QueryAccounting` binds the
    canonical series once at construction; both engines hold one.

The **answer** stage (sketch tier or store integration, plus the
fault dispatch) lives with the store, in :mod:`repro.query.engine`.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from itertools import compress
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
#: Hit flags of a query whose first ``k`` tables all hit, per ``k``.
_ALL_HIT = [dict.fromkeys(_TABLES[:k], True) for k in range(5)]
_NO_ATTRS: Dict[str, object] = {}


def plan_key(query: RangeQuery) -> tuple:
    """A query's plan-table key: its box's four floats and its bound
    (a tuple hashes in C, the frozen ``BBox`` in Python)."""
    box = query.box
    return box.min_x, box.min_y, box.max_x, box.max_y, query.bound


class QueryPlan:
    """What one query outside a batch resolved to, and what resolving
    it cost."""

    __slots__ = (
        "junction_count", "regions", "chain", "edges", "sensors", "nodes",
        "row", "hits", "stage_s",
    )

    def __init__(self) -> None:
        self.junction_count = 0
        #: Sorted region tuple; ``None`` when no approximation exists
        #: (§5.5: the query is a miss).
        self.regions: Optional[Tuple[int, ...]] = None
        #: The boundary chain and its length.
        self.chain = None
        self.edges = 0
        #: Planner-native sensor ids (resolved only when counted or
        #: dispatched to) and how many a dispatch contacts.
        self.sensors = ()
        self.nodes = 0
        #: The plan-table row behind the plan.
        self.row: Optional[list] = None
        #: Per-table hit flags (empty on a first plan).
        self.hits: Dict[str, bool] = {}
        self.stage_s: Dict[str, float] = {}


class BatchPlan:
    """The plan of a whole batch, one row per distinct key: the boxes,
    ``(box, bound)`` pairs and boundary chains the plan table lacks are
    each resolved once, whichever queries share them."""

    def __init__(self) -> None:
        #: Per query: its pair.  Per pair: its plan-table row and its
        #: chain row (-1 without one).
        self.pair_of: List[int] = []
        self.rows: List[list] = []
        self.chain_of: List[int] = []
        #: Per table, per pair: the row of the table's fill it reads
        #: (its box, itself, its chain), -1 if the plan table held it.
        self.fills: Dict[str, List[int]] = {}
        #: Per chain: the planner's batch container, its length and the
        #: sensors a dispatch over it contacts.
        self.chains = ()
        self.edges: List[int] = []
        self.nodes: List[int] = []
        #: Per table: seconds a fill of one row is charged.
        self.share: Dict[str, float] = {}
        #: Plan seconds in all (metered out of every ``elapsed``).
        self.fill_s = 0.0

    def attribute(self, served: Sequence[bool]) -> tuple:
        """The attribution rule over the whole batch: the first user of
        a row the batch *filled* is charged that table's seconds per
        row; every later user, and every user of a row the plan table
        held already, *hits*.  A query uses the junctions always, the
        regions when its box holds a junction, the chain when it is
        answered and the sensors unless the sketch ``served`` it, so
        the tables it uses are a prefix of the four.  Only the queries
        of a pair that reads a filled row can fill one.

        Returns the uses per ``(table, hit)`` and, per query, its hit
        flags, its shared fill seconds and its ``stage_s`` — the two
        routing phases of a pair the batch planned (the fill it
        triggered, 0.0 on a hit; chain and sensor fills count towards
        the shared seconds alone)."""
        fills, share = self.fills, self.share
        span = [1 + (row[0] > 0) + 2 * (row[1] is not None) for row in self.rows]
        cold = [max(rows) >= 0 for rows in zip(*fills.values())]
        seen: Dict[str, set] = {table: set() for table in _TABLES}
        spans, per_query = [0] * 5, []
        for p, skip in zip(self.pair_of, served):
            used = span[p] - skip
            spans[used] += 1
            flags, charged, stages = dict(_ALL_HIT[used]), 0.0, {}
            for table in _TABLES[:used] if cold[p] else ():
                row = fills[table][p]
                if row >= 0 and row not in seen[table]:
                    seen[table].add(row)
                    flags[table] = False
                    charged += share[table]
                if table in _ROUTING and row >= 0:
                    stages[PLAN_PHASES[table]] = 0.0 if flags[table] else share[table]
            per_query.append((flags, charged, stages))
        uses, users = {}, len(self.pair_of)
        for b, table in enumerate(_TABLES):
            users -= spans[b]  # the queries that use more than b tables
            uses[table, False] = len(seen[table])
            uses[table, True] = users - len(seen[table])
        return uses, per_query


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

    def _read(self, keys) -> List[Optional[list]]:
        """The rows the table holds for ``keys`` (``None`` where it
        holds none), each made the most recently used."""
        rows = [self.table.get(key) for key in keys]
        for key in compress(keys, rows):
            self.table.move_to_end(key)
        return rows

    def _write(self, items) -> None:
        """Enter new ``(key, row)`` items as the most recently used, the
        least recently used leaving past the cap."""
        self.table.update(items)
        while len(self.table) > PLAN_TABLE_ROWS:
            self.table.popitem(last=False)

    def plan(self, query: RangeQuery) -> QueryPlan:
        """Steps 1-3 of one query: its plan-table row, else — cold —
        the junction set, its region approximation and their boundary
        chain, stopping at the first step that proves the query a miss,
        and the row they make."""
        key = plan_key(query)
        plan = QueryPlan()
        row = plan.row = self.table.get(key)
        if row is not None:
            self.table.move_to_end(key)
            plan.junction_count, plan.regions, plan.chain, _ = row
            plan.edges = 0 if plan.chain is None else len(plan.chain)
            plan.hits = dict(_ALL_HIT[1 + bool(plan.junction_count) + (plan.regions is not None)])
            return plan
        planner, bound, timed, stage_s = self.planner, query.bound, self.timed, plan.stage_s
        junctions, stage_s["resolve_junctions"] = timed(
            "query.resolve_junctions", _NO_ATTRS, planner.junction_ids, query.box
        )
        plan.junction_count = len(junctions)
        if plan.junction_count:
            plan.regions, stage_s["approximate_region"] = timed(
                "query.approximate_region", {"bound": bound},
                planner.region_ids, junctions, bound,
            )
            if plan.regions is not None:
                plan.chain, stage_s["build_boundary"] = timed(
                    "query.build_boundary", {"regions": len(plan.regions)},
                    planner.boundary, plan.regions,
                )
                plan.edges = len(plan.chain)
        plan.row = [plan.junction_count, plan.regions, plan.chain, None]
        self._write(((key, plan.row),))
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
        plan.sensors, plan.stage_s["account_sensors"] = self.timed(
            "query.account_sensors", self._mode, compute, *args
        )
        plan.nodes = len(plan.sensors)
        row[3] = row[3] if served else plan.nodes

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

    def plan_batch(self, queries: Sequence[RangeQuery]) -> BatchPlan:
        """Plan a batch: dedupe to distinct ``(box, bound)`` pairs, read
        each from the plan table, resolve the others — each distinct box
        and pair once, through the planner's batch surface, each step
        under one ``batch.fill.<table>`` span — and dedupe the region
        tuples to distinct chains; build the chains and count the
        sensors no row holds yet, and write the planned pairs to the
        table."""
        planner, batch = self.planner, BatchPlan()
        # Rows are numbered by first use: a dict keeps insertion order.
        first: Dict[tuple, int] = {}
        batch.pair_of = [first.setdefault(plan_key(query), len(first)) for query in queries]
        pairs = list(first)
        rows = batch.rows = self._read(pairs)
        new = [p for p, row in enumerate(rows) if row is None]
        box_of = [-1] * len(rows)
        if new:
            boxes: Dict[tuple, int] = {}  # a box's four floats → its fill
            for p in new:
                box_of[p] = boxes.setdefault(pairs[p][:4], len(boxes))
            found, counts = self._fill(
                batch, "junctions", len(boxes), planner.batch_junctions, list(boxes)
            )
            regions = self._fill(
                batch, "regions", len(new), planner.batch_regions, found,
                [box_of[p] for p in new], [pairs[p][4] for p in new],
            )
            for p, selected in zip(new, regions):
                rows[p] = [counts[box_of[p]], selected, None, None]
        pair_fills = [p if box >= 0 else -1 for p, box in enumerate(box_of)]
        batch.fills = {"junctions": box_of, "regions": pair_fills}
        distinct: Dict[Tuple[int, ...], int] = {}
        batch.chain_of = [
            -1 if row[1] is None else distinct.setdefault(row[1], len(distinct))
            for row in rows
        ]
        self._chains(batch, list(distinct))
        self._write((pairs[p], rows[p]) for p in new)
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
        for table, held in (("boundary", chains), ("sensors", nodes)):
            batch.fills[table] = [c if c >= 0 and held[c] is None else -1 for c in batch.chain_of]
        todo = [c for c, held in enumerate(chains) if held is None]
        if todo:
            built = self._fill(
                batch, "boundary", len(todo), planner.batch_chains,
                [distinct[c] for c in todo],
            )
            for c, view in zip(todo, built):
                chains[c] = view
        # With no chain held, the fill's own container is the batch's.
        fresh = todo and len(todo) == n
        batch.chains = built if fresh else planner.join_chains(chains)
        if None in nodes:  # one count per chain of the batch
            nodes = self._fill(
                batch, "sensors", n, self._batch_sensors, batch.chains, distinct
            )
        batch.nodes = nodes
        batch.edges = [len(held) for held in chains]
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
    once per engine: :meth:`finish` accounts one query,
    :meth:`finish_batch` a whole batch, and :meth:`record` is the only
    place a :class:`~repro.query.QueryResult` — the one record of a
    query — is built."""

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

    def _class_counters(self, kind: str, bound: str) -> tuple:
        pair = self._by_class.get((kind, bound))
        if pair is None:
            counter = self.registry.counter
            pair = self._by_class[kind, bound] = (
                counter(
                    "repro_queries_total",
                    help="Queries executed, by kind and bound",
                    kind=kind,
                    bound=bound,
                ),
                counter(
                    "repro_query_misses_total",
                    help="Queries with no region approximation, by kind "
                    "and bound",
                    kind=kind,
                    bound=bound,
                ),
            )
        return pair

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
        self, query: RangeQuery, plan: QueryPlan, value: float, elapsed: float,
        stage_s: Dict[str, float], edges: int = 0, nodes: int = 0,
        degradation: Optional[QueryDegradation] = None, approximate: bool = False,
    ) -> QueryResult:
        """Account one executed query and build its record.

        ``plan.regions is None`` marks a miss.  Missed queries consume
        wall time too and are charged into the same seconds/latency
        series as answered ones, so the per-query mean the figures
        report covers the whole battery.
        """
        total, missing = self._class_counters(query.kind, query.bound)
        total.inc()
        missing.inc(plan.regions is None)
        self.sensors.inc(nodes)
        self.edges.inc(edges)
        self.seconds.inc(elapsed)
        self.latency.observe(elapsed)
        return self.record(
            query, value, plan.regions, edges, nodes, elapsed, stage_s, plan.junction_count,
            plan.hits, 0.0, degradation, approximate,
        )

    def finish_batch(
        self, queries: Sequence[RangeQuery], missed: Sequence[bool],
        latencies: Sequence[Tuple[float, int]], edges: int, nodes: int, shared: float = 0.0,
        uses: Optional[Dict[tuple, int]] = None,
    ) -> None:
        """Account a batch — the series :meth:`finish` moves per query
        — once per label set, with the batch's totals: its queries and
        the ``missed`` ones per (kind, bound), the answered ones'
        ``edges`` and ``nodes``, the ``shared`` fill seconds, the plan
        table ``uses`` per ``(table, hit)`` and one counted latency
        observation per ``(elapsed, queries)`` of ``latencies``."""
        labels = [(query.kind, query.bound) for query in queries]
        misses = list(compress(labels, missed))
        for label in dict.fromkeys(labels):  # a few labels: counted in C
            total, missing = self._class_counters(*label)
            total.inc(labels.count(label))
            missing.inc(misses.count(label))
        self.sensors.inc(nodes)
        self.edges.inc(edges)
        if shared:
            self.fill_seconds.inc(shared)
        for table_hit, count in (uses or {}).items():
            self.batch_cache[table_hit].inc(count)
        self.seconds.inc(sum([elapsed * count for elapsed, count in latencies]))
        for elapsed, count in latencies:
            self.latency.observe(elapsed, count)

    def record(
        self, query: RangeQuery, value: float, regions, edges: int, nodes: int, elapsed: float,
        stage_s: Dict[str, float], junction_count: int, hits: Dict[str, bool],
        shared: float = 0.0, degradation: Optional[QueryDegradation] = None,
        approximate: bool = False, fanout: int = 0, detail=None,
    ) -> QueryResult:
        """A query's one record (``regions is None``: a miss), kept by
        the flight recorder and, when slow, promoted with ``detail``
        (the executor's extra payload).  ``stage_s`` goes onto the
        record by reference: a scattered batch shares one table and
        writes its ``merge`` entry after the last record.  The
        degradation series stay per query (their bounds differ)."""
        if degradation is not None:
            self._record_degradation(degradation)
        missed = regions is None
        # Positional, in field order: a keyword call costs twice as much.
        result = QueryResult(
            query, value, missed, () if missed else regions, edges, nodes, edges, elapsed,
            approximate, degradation, self.planner, junction_count, stage_s, hits, shared,
            fanout, getattr(self.source, "generation", None),
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

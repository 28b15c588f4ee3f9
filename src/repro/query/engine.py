"""The in-network query engine (§4.6-4.7).

Executes :class:`~repro.query.RangeQuery` objects against a
:class:`~repro.sampling.SensorNetwork` and any
:class:`~repro.forms.EdgeCountStore` (exact tracking forms or learned
models) through the one pipeline of :mod:`repro.query.pipeline`:

1. **plan** — the rectangle resolves to the junction set ``R`` (union
   of faces of the full sensing graph, §5.1.5); ``R`` is approximated
   by a union of the executing network's regions — maximal enclosed
   (lower bound, R2) or minimal covering (upper bound, R1; Fig. 7) —
   whose boundary chain is built;
2. **answer** — the chain is integrated through the count store
   (Theorems 4.2/4.3) or, for a tolerant query, served from the
   error-bounded sketch; the sensors touched are accounted and, on a
   fault-injecting engine, the dispatch is simulated and may degrade
   the answer;
3. **finish** — metrics and the query's one record, the
   :class:`~repro.query.QueryResult` (answer, measured internals,
   stage times; the flight recorder keeps that same object).

A query *misses* when no region approximation exists (§5.5).

:meth:`QueryEngine.execute` runs the pipeline for one query.
:meth:`QueryEngine.execute_batch` runs each stage *once for the whole
batch*: one columnar plan over the distinct ``(box, bound)`` pairs
(:meth:`~repro.query.pipeline.PlanStage.plan_batch`), one integration
in which every first-touch chain × time is a lane of a single
rank-kernel call, and one accounting pass — only the records are
built per query.  Neither is implemented
through the other; their results are field-identical apart from the
timing fields.  Both plan through the engine's one plan table: a
``(box, bound)`` pair any earlier call planned — single or batched —
is read from it, not planned again.

Planners: the engine holds one planner, chosen at construction.  The
default (``planner="auto"``) runs the
:class:`~repro.query.CompiledQueryPlanner` (int32/CSR network indexes,
id-native integration) whenever the store supports id-native
integration, and the reference
:class:`~repro.query.PythonQueryPlanner` (sets/dicts) on any other
store; ``planner="python"`` forces the reference.  Both produce exactly
equal results — same values, misses, region ids, edge/sensor/hop
accounting, metrics and internals.

Instrumentation: the engine accepts an
:class:`~repro.obs.Instrumentation` bundle.  Every cold execution
emits per-phase tracing spans (``query.resolve_junctions`` →
``query.approximate_region`` → ``query.build_boundary`` →
``query.integrate`` → ``query.account_sensors``) through its tracer
and counts queries/misses/sensors in the process-global metrics
registry.  Every result carries its measured internals
(``junction_count``, ``stage_s``, ``cache_hits``, ``shared_fill_s``)
whatever the bundle: ``finish`` holds them anyway.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import QueryError
from ..forms import EdgeCountStore
from ..mobility import MobilityDomain
from ..network.faults import FaultInjector, RetryPolicy
from ..network.simulator import DegradedReport, NetworkSimulator
from ..obs import (
    FlightRecorder,
    Instrumentation,
    NULL_INSTRUMENTATION,
    build_explain,
)
from ..planar import NodeId
from ..sampling import SensorNetwork
from .pipeline import BatchPlan, PlanStage, QueryAccounting, QueryPlan
from .planner import CompiledQueryPlanner, PythonQueryPlanner
from .result import TRANSIENT, QueryDegradation, QueryResult, RangeQuery

#: Dispatch strategies a fault-aware engine may simulate (§4.6).
DISPATCH_STRATEGIES = ("perimeter_walk", "server_fanout")

#: How the static count of an interval query is evaluated from
#: snapshot counts (Theorem 4.2 gives N(t_q) for any t_q):
#: at the interval end (the paper's "up until t_q"), at the start, or
#: conservatively as the min of both ends.
STATIC_EVAL_MODES = ("end", "start", "min")

#: Resolution pipelines: "auto" compiles when the store supports
#: id-native integration, "python" forces the reference path.
PLANNER_MODES = ("auto", "python")


@dataclass
class QueryEngine:
    """Binds a sensing network to a count store and executes queries."""

    network: SensorNetwork
    store: EdgeCountStore
    #: "perimeter": contact only perimeter communication sensors (the
    #: in-network differential-form protocol).  "flood": contact every
    #: sensor inside the region (how the unsampled graph and the
    #: baseline behave in Fig. 11c).
    access_mode: str = "perimeter"
    static_eval: str = "end"
    #: Resolution pipeline: "auto" (compiled when the store supports
    #: it) or "python".  See :data:`PLANNER_MODES`.
    planner: str = "auto"
    #: Tracer bundle; ``None`` means the shared no-op recorder.
    instrumentation: Optional[Instrumentation] = None
    #: Fault injector; when set, answered queries are dispatched
    #: through a fault-tolerant :class:`~repro.network.NetworkSimulator`
    #: and may return partial aggregates flagged ``approximate`` with a
    #: :class:`~repro.query.QueryDegradation` bound.
    faults: Optional[FaultInjector] = None
    #: Strategy simulated for fault-aware dispatch (§4.6).
    dispatch_strategy: str = "perimeter_walk"
    #: Retry/timeout/backoff of the fault-aware dispatch; ``None``
    #: means the :class:`~repro.network.RetryPolicy` defaults.
    retry_policy: Optional[RetryPolicy] = None
    #: Always-on flight recorder: keeps every result in its ring, slow
    #: ones promoted to full detail.  ``None`` disables.
    flight: Optional[FlightRecorder] = None
    #: Error-bounded count sketch
    #: (:class:`~repro.forms.EdgeCountSketch`).  On an id-native store
    #: under ``planner="auto"`` a query carrying ``max_error`` is
    #: answered from the sketch whenever its worst-case bound fits the
    #: tolerance — no chain compilation, no sensor contact — and falls
    #: back to the exact path otherwise.  ``None`` disables the fast
    #: tier.
    sketch: Optional[object] = None

    def __post_init__(self) -> None:
        if self.access_mode not in ("perimeter", "flood"):
            raise QueryError(f"unknown access_mode {self.access_mode!r}")
        if self.static_eval not in STATIC_EVAL_MODES:
            raise QueryError(f"unknown static_eval {self.static_eval!r}")
        if self.planner not in PLANNER_MODES:
            raise QueryError(f"unknown planner {self.planner!r}")
        if self.dispatch_strategy not in DISPATCH_STRATEGIES:
            raise QueryError(
                f"unknown dispatch_strategy {self.dispatch_strategy!r}"
            )
        self.obs: Instrumentation = (
            self.instrumentation
            if self.instrumentation is not None
            else NULL_INSTRUMENTATION
        )
        #: Whether chains reach the store as wall ids (the compiled
        #: planner on a store that answers id-native chain integration;
        #: batches then integrate as evaluation points, not query by
        #: query).
        self._id_native = self.planner == "auto" and hasattr(
            self.store, "integrate_until_ids"
        )
        self._planner = (
            CompiledQueryPlanner if self._id_native else PythonQueryPlanner
        )(self.network)
        self._stage = PlanStage(
            self._planner, self.access_mode, self.obs.tracer
        )
        self._acct = QueryAccounting(
            self.flight, self._planner.name, self.store
        )
        self._simulator: Optional[NetworkSimulator] = None
        if self.faults is not None:
            self._simulator = NetworkSimulator(
                self.network,
                instrumentation=self.obs,
                faults=self.faults,
                retry=self.retry_policy
                if self.retry_policy is not None
                else RetryPolicy(),
            )
        #: The sketch tier serves only id-native chains and never under
        #: fault simulation (degraded dispatch must sample the live
        #: sensor set).
        self._sketch_tier = (
            self.sketch is not None
            and self._id_native
            and self._simulator is None
        )

    @property
    def domain(self) -> MobilityDomain:
        return self.network.domain

    def explain(self, query: RangeQuery):
        """Execute ``query`` and return its record as a
        :class:`~repro.obs.QueryExplain`.

        The query *runs* — EXPLAIN here is an account of an actual
        execution (counters and fault outcomes included), not an
        estimate.
        """
        return build_explain(self, self._cold(query))

    # ------------------------------------------------------------------
    def execute(self, query: RangeQuery) -> QueryResult:
        """Execute one query; never raises on misses (reports them).  A
        ``(box, bound)`` pair the engine planned before is planned from
        its plan table (``cache_hits`` set, no plan stage in
        ``stage_s``)."""
        return self._cold(query)

    def execute_many(
        self, queries: Sequence[RangeQuery]
    ) -> list[QueryResult]:
        return [self.execute(query) for query in queries]

    def execute_batch(
        self, queries: Sequence[RangeQuery]
    ) -> List[QueryResult]:
        """Execute a query battery as one batch.

        **Plan**: the distinct ``(box, bound)`` pairs of the battery
        are planned together — rectangle → junctions, region
        approximation, boundary chains and sensor accounting each run
        once, columnar, for all of them
        (:meth:`~repro.query.pipeline.PlanStage.plan_batch`); boxes
        that resolve to the same regions share one chain.  **Answer**:
        on an id-native store every query becomes one or two
        evaluation points ``(chain, time)``; chains already in (or due
        for promotion to) the store's boundary cache answer all their
        points with one ``searchsorted`` each, and every first-touch
        chain × time of the batch is a lane of **one** rank-kernel
        call (tolerant queries try the sketch the same way first).
        **Finish**: records per query, accounting per batch — the
        attribution rule runs once over the whole batch
        (:meth:`~repro.query.pipeline.BatchPlan.attribute`) and every
        counter moves once per label set with the batch's totals
        (:meth:`~repro.query.pipeline.QueryAccounting.finish_batch`);
        only the records are built one by one.  Results are identical to
        :meth:`execute_many` in every field but the timing ones, and
        a compiled store's boundary cache ends up as the loop would
        leave it (a streaming store is handed each chain once per
        batch, so its blocks count one touch where the loop counts
        one per query).

        **Ordering contract**: ``results[i]`` answers ``queries[i]``
        for every ``i``, whatever the internal evaluation order.  The
        sharded engine (:class:`~repro.query.ShardedQueryEngine`)
        relies on this when it scatters sub-batches — workers may
        complete in any interleaving, but each sub-batch comes back in
        its own input order and the parent re-slots by input index.
        The contract is asserted on exit.

        Timing attribution: plan work is metered *separately* from
        per-query work.  The first query of the batch to use a box, a
        ``(box, bound)`` pair or a chain the engine's plan table lacks
        *fills* that row and is charged the step's seconds per row — in
        ``repro_query_batch_fill_seconds_total``, under the
        ``batch.fill.*`` spans and in its ``shared_fill_s``; every
        later user, and every user of a row the table held, *hits*
        (``repro_query_batch_cache_total{cache,outcome}``), and a
        result all of whose rows were hits is flagged
        ``cache_served``.  ``elapsed`` never contains plan seconds: it
        is the query's even share of the batch's dedupe pass plus, if
        answered, its even share of the one integration — so the first
        query for a ``(box, bound)`` is directly comparable to later
        ones and to the Fig. 11d series.

        Fault-aware engines run every query cold, one after the other:
        degraded dispatch depends on the live per-query sensor set and
        the injector's attempt stream, which a shared plan cannot
        reproduce.
        """
        if self._simulator is not None:
            return [self._cold(query) for query in queries]
        with self.obs.tracer.span("query.execute_batch", queries=len(queries)):
            results = self._run_batch(queries)
        assert len(results) == len(queries) and all(
            result.query is query
            for result, query in zip(results, queries)
        ), "execute_batch broke the input-order result contract"
        return results

    def _run_batch(self, queries: Sequence[RangeQuery]) -> List[QueryResult]:
        """The batch core: plan → answer → finish, the first two once
        for the whole batch, accounting once per table and per series;
        only the records are per query."""
        acct, n = self._acct, len(queries)
        pc = time.perf_counter
        start = pc()
        batch = self._stage.plan_batch(queries)
        chain = np.array([batch.chain_of[p] for p in batch.pair_of], dtype=np.int64)
        # Shared work is split evenly: every query its share of the
        # dedupe, every answered one its share of the one integration.
        lookup = (pc() - start - batch.fill_s) / max(n, 1)
        (values, bounds), integrate = self._stage.timed(
            "query.integrate", {"queries": n}, self._answer_batch, batch, queries, chain
        )
        answered = int(np.count_nonzero(chain >= 0))
        integrate /= max(answered, 1)
        uses, attributed = batch.attribute([bound is not None for bound in bounds])
        # Per chain row (-1: none), its length and the sensors it contacts.
        rows, lengths, sensors = batch.rows, batch.edges + [0], batch.nodes + [0]
        elapsed, results, walls, contacted, filled = lookup + integrate, [], 0, 0, 0.0
        for query, p, value, bound, (h, f, s) in zip(
            queries, batch.pair_of, values, bounds, attributed
        ):
            junction_count, regions, c = rows[p][0], rows[p][1], batch.chain_of[p]
            if regions is not None:
                s["integrate"] = integrate
            # A query the sketch served contacts no sensor.
            sketched = None if bound is None else self._sketched(lengths[c], bound)
            nodes = sensors[c] if sketched is None else 0
            walls, contacted, filled = walls + lengths[c], contacted + nodes, filled + f
            results.append(acct.record(
                query, value, regions, lengths[c], nodes, lookup if regions is None else elapsed,
                s, junction_count, h, f, sketched, sketched is not None,
            ))
        acct.finish_batch(
            queries, [result.missed for result in results],
            ((lookup, n - answered), (elapsed, answered)), walls, contacted, filled, uses,
        )
        return results

    def _answer_batch(
        self, batch: BatchPlan, queries: Sequence[RangeQuery], chain: np.ndarray
    ) -> Tuple[list, list]:
        """Per query of a planned batch (query ``k`` on chain row
        ``chain[k]``), its value and — served from the sketch — its
        error bound.

        On an id-native store a query is one or two **evaluation
        points** ``(chain, time)`` whose cumulative nets fold into its
        value (:meth:`_fold`): tolerant queries try the sketch first,
        all their points in one ``estimate_batch``, and every point
        not served there goes to the store in one ``integrate_batch``.
        Any other store integrates query by query, as :meth:`_answer`
        does.
        """
        n, chains, mode = len(queries), batch.chains, self.static_eval
        values, bounds = [0.0] * n, [None] * n
        live = chain >= 0
        if not self._id_native:
            integrate, store = self._planner.integrate, self.store
            for k in np.flatnonzero(live).tolist():
                values[k] = integrate(store, chains[chain[k]], queries[k], mode)
            return values, bounds
        t1 = np.array([query.t1 for query in queries])
        t2 = np.array([query.t2 for query in queries])
        flow = np.array([query.kind == TRANSIENT for query in queries], bool)
        # Every query is evaluated at its last time; a two-ended one
        # (a transient count, a static one under "min") also at t1.
        two = flow | (mode == "min")
        owner = np.concatenate((np.arange(n), np.flatnonzero(two)))
        times = np.concatenate(
            (np.where(flow, t2, t1) if mode == "start" else t2, t1[two])
        )

        def ends(at, at_points):
            """Per query, the point values at its last and first time."""
            of_point = np.zeros(owner.size, dtype=np.int64)
            of_point[at] = at_points
            first = np.zeros(n, dtype=np.int64)
            first[two] = of_point[n:]
            return of_point[:n], first

        if self._sketch_tier:
            tolerance = np.array(
                [np.nan if q.max_error is None else q.max_error for q in queries]
            )
            tolerant = live & ~np.isnan(tolerance)
            at = np.flatnonzero(tolerant[owner])
            estimates, slack = self.sketch.estimate_batch(
                chains, chain[owner[at]], times[at]
            )
            estimate = self._fold(flow, two, *ends(at, estimates))
            last, first = ends(at, slack)
            bound = np.where(flow, last + first, np.maximum(last, first))
            served = tolerant & (bound <= tolerance)
            self._acct.sketch[True].inc(int(served.sum()))
            self._acct.sketch[False].inc(int((tolerant & ~served).sum()))
            live &= ~served
            for k in np.flatnonzero(served).tolist():
                values[k], bounds[k] = float(estimate[k]), float(bound[k])
        at = np.flatnonzero(live[owner])
        nets = self._planner.integrate_batch(
            self.store, chains,
            np.bincount(chain[live], minlength=len(chains)),
            chain[owner[at]], times[at],
        )
        folded = self._fold(flow, two, *ends(at, nets))
        for k in np.flatnonzero(live).tolist():
            values[k] = folded[k]
        return values, bounds

    @staticmethod
    def _fold(transient, two, last, first) -> list:
        """Per query, its value from the cumulative nets at its last
        and first evaluation point: their difference (Theorem 4.3),
        the smaller (static "min") or the last alone (Theorem 4.2)."""
        static = np.where(two, np.minimum(last, first), last)
        return np.where(transient, last - first, static).tolist()

    def _cold(self, query: RangeQuery) -> QueryResult:
        """One query outside any batch, under its ``query.execute``
        span (opened, like every span here, only on a live tracer:
        the null span costs three calls for nothing)."""
        tracer = self.obs.tracer
        if not tracer.enabled:
            return self._run(query)
        with tracer.span(
            "query.execute", kind=query.kind, bound=query.bound
        ) as span:
            return self._run(query, span)

    def _run(self, query: RangeQuery, span=None) -> QueryResult:
        """The per-query core: plan → answer → finish, every step
        under its own span inside ``span``."""
        acct, stage = self._acct, self._stage
        pc = time.perf_counter
        start = pc()
        plan = stage.plan(query)
        stage_s, chain = plan.stage_s, plan.chain
        if chain is None:
            return acct.finish(query, plan, 0.0, pc() - start, stage_s)
        edges = plan.edges
        (value, degradation), stage_s["integrate"] = stage.timed(
            "query.integrate", {"edges": edges}, self._answer, chain, query
        )
        t_answered = pc()
        approximate = degradation is not None
        stage.sensors(plan, approximate, self._simulator is not None)
        nodes = accounted = plan.nodes
        if self._simulator is not None and nodes:
            value, degradation, nodes = self._dispatch(plan, query, value)
            stage_s["account_sensors"] = pc() - t_answered
            if degradation is not None:
                approximate = degradation.lost_walls > 0
                # A lost wall's partial aggregate never joined the
                # value: charge only the reached walls.
                edges -= degradation.lost_walls
        if span is not None:
            span.set(value=value, sensors=accounted)
        return acct.finish(
            query, plan, value, pc() - start, stage_s,
            edges, nodes, degradation, approximate,
        )

    def _answer(
        self, chain, query: RangeQuery
    ) -> Tuple[float, Optional[QueryDegradation]]:
        """The count over the chain: from the sketch tier when its
        bound fits the query's tolerance (the answer then carries that
        bound), else integrated through the store (Theorems 4.2/4.3)."""
        if self._sketch_tier and query.max_error is not None:
            sketched = self._try_sketch(chain, query)
            if sketched is not None:
                return sketched
        value = self._planner.integrate(
            self.store, chain, query, self.static_eval
        )
        return value, None

    # ------------------------------------------------------------------
    def resolve_junctions(self, query: RangeQuery) -> Set[NodeId]:
        """The junction set the rectangle resolves to (for evaluation)."""
        return self.domain.junctions_in_bbox(query.box)

    def region_junctions(self, result: QueryResult) -> Set[NodeId]:
        """Junctions actually covered by the executed approximation."""
        covered: Set[NodeId] = set()
        for region in result.regions:
            covered |= self.network.region_junctions(region)
        return covered

    # ------------------------------------------------------------------
    # Fault-aware dispatch (graceful degradation)
    # ------------------------------------------------------------------
    def _dispatch(
        self, plan: QueryPlan, query: RangeQuery, value: float
    ) -> Tuple[float, Optional[QueryDegradation], int]:
        """Simulate the dispatch over the plan's sensors; returns the
        (possibly partial) value, its degradation and the sensors
        actually contacted."""
        with self.obs.tracer.span(
            "query.fault_dispatch", strategy=self.dispatch_strategy
        ):
            report = self._simulator.dispatch(
                sorted(int(s) for s in plan.sensors),
                strategy=self.dispatch_strategy,
            )
            degradation = None
            if report.skipped_sensors:
                value, degradation = self._degrade(
                    self._planner.decode_edges(plan.chain), query, report
                )
        return value, degradation, report.sensors_contacted

    def _degrade(
        self,
        boundary,
        query: RangeQuery,
        report: DegradedReport,
    ) -> Tuple[float, QueryDegradation]:
        """Partial aggregate + error bound after a degraded dispatch.

        A boundary wall is *lost* when every sensor owning it was
        skipped by the dispatch — its signed contribution never joins
        the aggregate.  The degraded value integrates only the reached
        walls; the bound charges each lost wall the largest per-wall
        magnitude observed among the reached walls (plus one count of
        slack), which contains the true error whenever the lost walls
        are no heavier than the heaviest reached one.
        """
        skipped = set(report.skipped_sensors)
        network = self.network
        reached: List = []
        lost = 0
        for edge in boundary:
            owners = network.wall_sensors(*edge)
            if owners and owners <= skipped:
                lost += 1
            else:
                reached.append(edge)

        store = self.store
        if query.kind == TRANSIENT:
            nets = [[
                store.net_between(edge, query.t1, query.t2) for edge in reached
            ]]
        else:
            start, end = (
                [store.net_until(edge, t) for edge in reached]
                for t in (query.t1, query.t2)
            )
            nets = {"start": [start], "end": [end]}.get(
                self.static_eval, [start, end]
            )
        value = float(min(sum(series) for series in nets))
        magnitudes = [abs(net) for series in nets for net in series]

        if lost == 0:
            bound = 0.0
        elif magnitudes:
            bound = lost * (max(magnitudes) + 1.0)
        else:
            bound = math.inf  # nothing reached: the error is unbounded
        degradation = QueryDegradation(
            skipped_sensors=report.skipped_sensors,
            lost_walls=lost,
            boundary_walls=len(boundary),
            error_bound=bound,
            coverage=(
                (len(boundary) - lost) / len(boundary) if boundary else 0.0
            ),
            strategy=report.strategy,
            detours=report.detours,
            server_stitches=report.server_stitches,
            retries=report.retries,
            drops=report.drops,
        )
        return value, degradation

    # ------------------------------------------------------------------
    # Sketch fast path (error-bounded approximate tier)
    # ------------------------------------------------------------------
    def _try_sketch(
        self, chain, query: RangeQuery
    ) -> Optional[Tuple[float, QueryDegradation]]:
        """Sketch answer for an id-native chain, or ``None`` to fall
        back to the exact path (the bound exceeds the tolerance).

        A hit is flagged ``approximate`` and carries its worst-case
        bound through :class:`~repro.query.QueryDegradation` with
        ``strategy="sketch"``; the bound always contains the exact
        answer (see :class:`~repro.forms.EdgeCountSketch`).
        """
        wall_ids, signs, sketch = chain.wall_ids, chain.signs, self.sketch
        if query.kind == TRANSIENT:
            estimate, bound = sketch.estimate_between_ids(
                wall_ids, signs, query.t1, query.t2
            )
        else:
            times = query.static_times(self.static_eval)
            estimate, bound = sketch.estimate_until_ids(
                wall_ids, signs, times[-1]
            )
            if len(times) == 2:  # min estimate; max bound covers min()
                first, slack = sketch.estimate_until_ids(
                    wall_ids, signs, times[0]
                )
                estimate, bound = min(estimate, first), max(bound, slack)
        hit = bound <= query.max_error
        self._acct.sketch[hit].inc()
        if not hit:
            return None
        return float(estimate), self._sketched(len(chain), bound)

    @staticmethod
    def _sketched(edges: int, bound: float) -> QueryDegradation:
        """The bound a sketch-served answer carries."""
        return QueryDegradation(
            skipped_sensors=(),
            lost_walls=0,
            boundary_walls=edges,
            error_bound=float(bound),
            coverage=1.0,
            strategy="sketch",
        )


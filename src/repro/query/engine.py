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
3. **finish** — metrics, provenance, flight record and the
   :class:`~repro.query.QueryResult`.

A query *misses* when no region approximation exists (§5.5).

:meth:`QueryEngine.execute` runs the pipeline cold for one query;
:meth:`QueryEngine.execute_batch` runs the *same* per-query core with a
per-batch :class:`~repro.query.pipeline.PlanMemo`, so repeated boxes
and regions are planned once.  Neither is implemented through the
other.

Planners: the engine holds one planner, chosen at construction — the
reference :class:`~repro.query.PythonQueryPlanner` (sets/dicts,
``planner="python"``) or the
:class:`~repro.query.CompiledQueryPlanner` (``planner="compiled"``;
int32/CSR network indexes, id-native integration).  The default
(``planner="auto"``) compiles whenever the store supports id-native
integration.  Both produce exactly equal results — same values,
misses, region ids, edge/sensor/hop accounting, metrics and provenance.

Instrumentation: the engine accepts an
:class:`~repro.obs.Instrumentation` bundle.  Every cold execution
emits per-phase tracing spans (``query.resolve_junctions`` →
``query.approximate_region`` → ``query.build_boundary`` →
``query.integrate`` → ``query.account_sensors``) through its tracer
and counts queries/misses/sensors in the process-global metrics
registry; with ``provenance=True`` each result carries a
:class:`~repro.obs.QueryProvenance` with the measured internals.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..errors import QueryError
from ..forms import EdgeCountStore
from ..mobility import MobilityDomain
from ..network.faults import FaultInjector, RetryPolicy
from ..network.simulator import DegradedReport, NetworkSimulator
from ..obs import FlightRecorder, Instrumentation, NULL_INSTRUMENTATION
from ..planar import NodeId
from ..sampling import SensorNetwork
from .pipeline import PlanMemo, PlanStage, QueryAccounting, QueryPlan
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
#: id-native integration, "compiled"/"python" force one path.
PLANNER_MODES = ("auto", "compiled", "python")


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
    #: it), "compiled" or "python".  See :data:`PLANNER_MODES`.
    planner: str = "auto"
    #: Tracing/metrics/provenance bundle; ``None`` means the shared
    #: no-op recorder.
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
    #: Always-on flight recorder: one cheap ring-buffer record per
    #: query, slow queries promoted to full detail.  ``None`` disables.
    flight: Optional[FlightRecorder] = None
    #: Error-bounded count sketch
    #: (:class:`~repro.forms.EdgeCountSketch`).  With ``planner="auto"``
    #: a query carrying ``max_error`` is answered from the sketch
    #: whenever its worst-case bound fits the tolerance — no chain
    #: compilation, no sensor contact — and falls back to the exact
    #: path otherwise.  ``None`` disables the fast tier.
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
        #: Whether the store answers id-native chain integration.
        id_native = hasattr(self.store, "integrate_until_ids")
        compiled = self.planner == "compiled" or (
            self.planner == "auto" and id_native
        )
        self._planner = (
            CompiledQueryPlanner if compiled else PythonQueryPlanner
        )(self.network)
        self._stage = PlanStage(
            self._planner, self.access_mode, self.obs.tracer
        )
        self._acct = QueryAccounting(
            self.obs, self.flight, self._planner.name, self.store
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
        #: The sketch tier serves only id-native chains under
        #: ``planner="auto"`` (forcing "compiled" or "python" pins the
        #: exact pipeline) and never under fault simulation (degraded
        #: dispatch must sample the live sensor set).
        self._sketch_tier = (
            self.sketch is not None
            and self.planner == "auto"
            and id_native
            and self._simulator is None
        )

    @property
    def domain(self) -> MobilityDomain:
        return self.network.domain

    @property
    def planner_in_use(self) -> str:
        """The resolved pipeline: "compiled" or "python"."""
        return self._planner.name

    @property
    def simulator(self) -> Optional[NetworkSimulator]:
        """The fault-tolerant dispatcher (``None`` without faults)."""
        return self._simulator

    def explain(self, query: RangeQuery):
        """Execute ``query`` with provenance forced on and fold the
        measured internals into a :class:`~repro.obs.QueryExplain`.

        The query *runs* — EXPLAIN here is an account of an actual
        execution (counters and fault outcomes included), not an
        estimate.
        """
        from ..obs.explain import build_explain

        return build_explain(self, self._cold(query, True))

    # ------------------------------------------------------------------
    def execute(self, query: RangeQuery) -> QueryResult:
        """Execute one query; never raises on misses (reports them)."""
        return self._cold(query, self.obs.provenance)

    def execute_many(
        self, queries: Sequence[RangeQuery]
    ) -> list[QueryResult]:
        return [self.execute(query) for query in queries]

    def execute_batch(
        self, queries: Sequence[RangeQuery]
    ) -> List[QueryResult]:
        """Execute a query battery, amortising the shared work.

        The standard batteries reuse the same rectangles across kinds
        and bounds, so rectangle → junction-set resolution, region
        approximation, boundary-chain construction and sensor
        accounting are each computed once per distinct (box, bound) and
        shared across the batch through a
        :class:`~repro.query.pipeline.PlanMemo`.  Count stores exposing
        batched integration
        (:class:`~repro.forms.CompiledTrackingForm`) additionally
        amortise the boundary's merged timestamp series across every
        timestamp evaluated against it.  Results are identical to
        :meth:`execute_many`.

        **Ordering contract**: ``results[i]`` answers ``queries[i]``
        for every ``i``, whatever the internal evaluation order.  The
        sharded engine (:class:`~repro.query.ShardedQueryEngine`)
        relies on this when it scatters sub-batches — workers may
        complete in any interleaving, but each sub-batch comes back in
        its own input order and the parent re-slots by input index.
        The contract is asserted on exit here and in the sharded
        gather.

        Timing attribution: shared cache-fill work is metered
        *separately* from per-query work.  Each result's ``elapsed``
        covers only the work done for that query (integration plus
        cache lookups), so the first query for a ``(box, bound)`` is
        directly comparable to later ones and to the Fig. 11d series;
        the fill cost is accumulated in the
        ``repro_query_batch_fill_seconds_total`` counter, in
        ``batch.fill.*`` tracing spans and — with provenance enabled —
        in the triggering result's ``provenance.shared_fill_s``.
        Results whose shared structures all came from the caches are
        flagged ``cache_served``.

        Fault-aware engines run every query cold, one after the other:
        degraded dispatch depends on the live per-query sensor set and
        the injector's attempt stream, which the shared caches cannot
        reproduce.
        """
        provenance = self.obs.provenance
        if self._simulator is not None:
            return [self._cold(query, provenance) for query in queries]
        tracer = self.obs.tracer
        memo = PlanMemo(self._acct.batch_cache, tracer)
        with tracer.span("query.execute_batch", queries=len(queries)):
            results = [self._run(query, memo, provenance) for query in queries]
        assert len(results) == len(queries) and all(
            result.query is query
            for result, query in zip(results, queries)
        ), "execute_batch broke the input-order result contract"
        return results

    def _cold(self, query: RangeQuery, provenance: bool) -> QueryResult:
        """One query outside any batch, under its ``query.execute``
        span (opened, like every span here, only on a live tracer:
        the null span costs three calls for nothing)."""
        tracer = self.obs.tracer
        if not tracer.enabled:
            return self._run(query, None, provenance)
        with tracer.span(
            "query.execute", kind=query.kind, bound=query.bound
        ) as span:
            return self._run(query, None, provenance, span)

    def _run(
        self,
        query: RangeQuery,
        memo: Optional[PlanMemo],
        provenance: bool,
        span=None,
    ) -> QueryResult:
        """The per-query core: plan → answer → finish.

        ``memo`` is ``None`` for a cold query (every step runs, under
        its own span inside ``span``) and the batch's shared tables
        otherwise.
        """
        acct, stage, tracer = self._acct, self._stage, self.obs.tracer
        acct.count_query(query)
        pc = time.perf_counter
        start = pc()
        plan = stage.plan(query, memo)
        stage_s, chain = plan.stage_s, plan.chain
        if chain is None:
            return acct.finish(
                query, plan, 0.0, pc() - start - plan.shared, stage_s,
                provenance,
            )
        edges = len(chain)
        t_planned = pc()
        if tracer.enabled:
            with tracer.span("query.integrate", edges=edges):
                value, degradation = self._answer(chain, query)
        else:
            value, degradation = self._answer(chain, query)
        t_answered = pc()
        stage_s["integrate"] = t_answered - t_planned
        approximate = degradation is not None
        stage.sensors(plan, memo, approximate)
        nodes = accounted = len(plan.sensors)
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
            query, plan, value, pc() - start - plan.shared, stage_s,
            provenance, edges, nodes, degradation, approximate,
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
            contributions = [
                store.net_between(edge, query.t1, query.t2)
                for edge in reached
            ]
            value = float(sum(contributions))
            magnitudes = [abs(c) for c in contributions]
        else:
            at_start = [store.net_until(edge, query.t1) for edge in reached]
            at_end = [store.net_until(edge, query.t2) for edge in reached]
            if self.static_eval == "start":
                value = float(sum(at_start))
                magnitudes = [abs(c) for c in at_start]
            elif self.static_eval == "end":
                value = float(sum(at_end))
                magnitudes = [abs(c) for c in at_end]
            else:
                value = float(min(sum(at_start), sum(at_end)))
                magnitudes = [abs(c) for c in at_start + at_end]

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
        wall_ids, signs = chain.wall_ids, chain.signs
        sketch = self.sketch
        if query.kind == TRANSIENT:
            estimate, bound = sketch.estimate_between_ids(
                wall_ids, signs, query.t1, query.t2
            )
        elif self.static_eval == "end":
            estimate, bound = sketch.estimate_until_ids(
                wall_ids, signs, query.t2
            )
        elif self.static_eval == "start":
            estimate, bound = sketch.estimate_until_ids(
                wall_ids, signs, query.t1
            )
        else:  # "min": min estimate; max bound covers min() exactly
            e1, b1 = sketch.estimate_until_ids(wall_ids, signs, query.t1)
            e2, b2 = sketch.estimate_until_ids(wall_ids, signs, query.t2)
            estimate, bound = min(e1, e2), max(b1, b2)
        hit = bound <= query.max_error
        self._acct.sketch[hit].inc()
        if not hit:
            return None
        degradation = QueryDegradation(
            skipped_sensors=(),
            lost_walls=0,
            boundary_walls=len(chain),
            error_bound=float(bound),
            coverage=1.0,
            strategy="sketch",
        )
        return float(estimate), degradation


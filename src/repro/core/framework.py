"""The public framework facade: deploy -> ingest -> query.

:class:`InNetworkFramework` wires the substrates into the paper's
pipeline with a small surface:

>>> framework = InNetworkFramework.from_road_graph(road)
>>> framework.deploy(FrameworkConfig(selector="quadtree", budget=50))
>>> framework.ingest_trips(trips)
>>> result = framework.query(box, t1, t2)          # lower-bound static
>>> result.value, result.nodes_accessed

The framework keeps the deployed (sampled) configuration and the raw
event log.  The exact answer (``query_exact``) is the evaluation's
ground truth: its full reference network and form are built from the
log when it is first asked for, never on ingest, so callers can still
measure the approximation themselves.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Union

import numpy as np

from ..errors import ConfigurationError, QueryError
from ..forms import EdgeCountStore, TrackingForm
from ..geometry import BBox
from ..mobility import MobilityDomain, voronoi_strata
from ..network import FaultConfig, FaultInjector, RetryPolicy
from ..models import (
    LinearModel,
    ModeledCountStore,
    PeriodicModel,
    PiecewiseLinearModel,
    PolynomialModel,
    StepHistogramModel,
)
from ..obs import (
    FlightRecorder,
    Instrumentation,
    NULL_INSTRUMENTATION,
    get_registry,
)
from ..planar import NodeId, PlanarGraph
from ..query import (
    LOWER,
    STATIC,
    QueryEngine,
    QueryResult,
    RangeQuery,
)
from ..sampling import SensorNetwork, full_network, sampled_network, wall_network
from ..stream import StreamingEventStore
from ..selection import (
    KDTreeSelector,
    QuadTreeSelector,
    SensorCandidates,
    StratifiedSelector,
    SubmodularSelector,
    SystematicSelector,
    UniformSelector,
)
from ..trajectories import (
    CrossingEvent,
    EventColumns,
    Trip,
    all_events,
    columnarize,
)
from .config import FrameworkConfig

_MODEL_FACTORIES = {
    "linear": LinearModel,
    "polynomial": PolynomialModel,
    "piecewise": PiecewiseLinearModel,
    "histogram": StepHistogramModel,
    "periodic": PeriodicModel,
}


class InNetworkFramework:
    """End-to-end in-network spatiotemporal range-count framework."""

    def __init__(
        self,
        domain: MobilityDomain,
        instrumentation: Optional[Instrumentation] = None,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        self.obs = (
            instrumentation
            if instrumentation is not None
            else NULL_INSTRUMENTATION
        )
        #: Always-on query flight recorder, shared by every engine the
        #: framework hands out, for the framework's whole life (a
        #: re-deploy keeps it).  Pass a sized one — ``flight=
        #: FlightRecorder(capacity=…, slow_threshold_s=…)`` — to change
        #: the defaults.
        self.flight: FlightRecorder = (
            flight if flight is not None else FlightRecorder()
        )
        self.domain = domain
        self.config: Optional[FrameworkConfig] = None
        self.network: Optional[SensorNetwork] = None
        #: Everything ingested so far, as time-sorted windows with
        #: their raw timestamps (one empty window to begin with).
        #: :meth:`_log_columns` merges them into one when a reader
        #: wants the whole log.
        self._log: List[EventColumns] = [columnarize(domain, ())]
        self._form: Optional[TrackingForm] = None
        #: The full reference network and its form, built by the first
        #: ``query_exact``; every ingest and re-deploy drops the form.
        self._full: Optional[SensorNetwork] = None
        self._full_form: Optional[TrackingForm] = None
        #: Whether anything was ingested: ``query_exact`` answers from
        #: then on (a streaming deployment answers from the start).
        self._ingested = False
        self._store: Optional[EdgeCountStore] = None
        #: :meth:`query`'s default-dispatch engine with the key it was
        #: built under; dropped wherever ``_store`` is rebound.
        self._engine = None
        #: :meth:`query_exact`'s engine with its key, the same way.
        self._exact_engine = None
        self._streaming: Optional[StreamingEventStore] = None
        self._sketch = None
        self._closed = False
        self._query_history: List[Set[NodeId]] = []

    @classmethod
    def from_road_graph(
        cls,
        road_graph: PlanarGraph,
        instrumentation: Optional[Instrumentation] = None,
        flight: Optional[FlightRecorder] = None,
    ) -> "InNetworkFramework":
        """Build the framework from a planar road network."""
        obs = (
            instrumentation
            if instrumentation is not None
            else NULL_INSTRUMENTATION
        )
        with obs.tracer.span(
            "planarize",
            nodes=road_graph.node_count,
            edges=road_graph.edge_count,
        ):
            domain = MobilityDomain(road_graph)
        return cls(domain, instrumentation=instrumentation, flight=flight)

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def record_query_region(self, box: BBox) -> None:
        """Register a historical query region for submodular deployment."""
        junctions = self.domain.junctions_in_bbox(box)
        if junctions:
            self._query_history.append(junctions)

    def deploy(self, config: FrameworkConfig = FrameworkConfig()) -> SensorNetwork:
        """Select sensors and materialise the sampled sensing network.

        Re-deploying re-ingests previously ingested events into the new
        configuration automatically.
        """
        self._guard_open()
        tracer = self.obs.tracer
        with tracer.span(
            "deploy", selector=config.selector, budget=config.budget
        ) as span:
            rng = np.random.default_rng(config.seed)
            candidates = SensorCandidates.from_domain(self.domain)
            budget = min(config.budget, len(candidates))

            if config.selector == "submodular":
                if not self._query_history:
                    raise ConfigurationError(
                        "submodular deployment needs record_query_region() "
                        "calls (historical query regions) first"
                    )
                with tracer.span("deploy.select_sensors"):
                    plan = SubmodularSelector(
                        self.domain, self._query_history
                    ).plan(budget)
                with tracer.span("deploy.materialise_network"):
                    network = wall_network(
                        self.domain, plan.walls, plan.sensors,
                        name="submodular",
                    )
            else:
                selector = {
                    "uniform": UniformSelector,
                    "systematic": SystematicSelector,
                    "kdtree": KDTreeSelector,
                    "quadtree": QuadTreeSelector,
                }.get(config.selector)
                with tracer.span("deploy.select_sensors"):
                    if selector is not None:
                        chosen = selector().select(candidates, budget, rng)
                    else:  # stratified
                        strata = voronoi_strata(
                            self.domain.bounds,
                            rng=np.random.default_rng(config.seed),
                        )
                        chosen = StratifiedSelector(strata).select(
                            candidates, budget, rng
                        )
                with tracer.span("deploy.materialise_network"):
                    network = sampled_network(
                        self.domain,
                        chosen,
                        connectivity=config.connectivity,
                        k=config.knn_k,
                        name=config.selector,
                    )

            registry = get_registry()
            registry.counter(
                "repro_deploys_total",
                help="Sensing-network deployments, by selector",
                selector=config.selector,
            ).inc()
            registry.gauge(
                "repro_deployed_sensors",
                help="Communication sensors in the deployed network",
            ).set(len(network.sensors))
            registry.gauge(
                "repro_deployed_walls",
                help="Monitored walls in the deployed network",
            ).set(len(network.walls))
            registry.gauge(
                "repro_deployed_regions",
                help="Sensing regions of the deployed network",
            ).set(network.region_count)
            if tracer.enabled:
                span.set(
                    sensors=len(network.sensors),
                    walls=len(network.walls),
                    regions=network.region_count,
                )

            self.config = config
            self.network = network
            self._form = None
            self._store = self._engine = None
            self._streaming = None
            self._sketch = None
            if config.streaming or self._logged_events():
                self._rebuild_stores()
        return network

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest_trips(self, trips: Sequence[Trip]) -> int:
        """Ingest trips as anonymous crossing events."""
        with self.obs.tracer.span("ingest.extract_events", trips=len(trips)):
            events = all_events(self.domain, trips)
        return self.ingest_events(events)

    def ingest_events(
        self, events: Union[EventColumns, Iterable[CrossingEvent]]
    ) -> int:
        """Ingest an anonymous crossing-event stream.

        One path for every deployment::

            events --EventColumns.from_events--> window --+--> log
              (the only interning site)                   +--> store

        The window (events in any order, or ready-made
        :class:`~repro.trajectories.EventColumns`) is converted once
        and joins the log.  A batch deployment then rebuilds its
        stores from the whole log; with ``streaming=True`` the same
        columns are appended to the live
        :class:`~repro.stream.StreamingEventStore` — the query indexes
        update incrementally (tail append, periodic compaction).
        Either way the full reference form is dropped, not built:
        :meth:`query_exact` builds it from the log when next asked.
        """
        self._guard_open()
        tracer = self.obs.tracer
        with tracer.span("ingest") as span:
            with tracer.span("ingest.columnarize"):
                window = columnarize(self.domain, events)
            span.set(events=len(window))
            self._log.append(window)
            self._ingested = True
            if self._streaming is not None:
                with tracer.span("ingest.stream_append", events=len(window)):
                    self._streaming.append_events(window)
                # The stale reference form goes with the engine on it.
                self._full_form = self._exact_engine = None
            else:
                self._rebuild_stores()
        get_registry().counter(
            "repro_events_ingested_total",
            help="Crossing events ingested by the framework",
        ).inc(len(window))
        return len(window)

    def _guard_open(self) -> None:
        if self._closed:
            raise QueryError(
                "framework is closed; create a new InNetworkFramework"
            )

    def _logged_events(self) -> int:
        return sum(map(len, self._log))

    def _log_columns(self) -> EventColumns:
        """The whole log as one time-sorted stream (the windows since
        the last call are merged in, once), with the succinct tier's
        ingest-boundary quantization when deployed with
        ``compress=True``.

        Quantizing *here* — on read, before any store is built, never
        in the log — is what makes compressed and uncompressed paths
        byte-identical: the sampled form, the full reference form and
        ``query_exact`` all see the same (quantized) multiset, and a re-deploy may flip ``compress``.
        """
        if len(self._log) > 1:
            self._log = [EventColumns.concat(self._log)]
        columns = self._log[0]
        if self.config is not None and self.config.compress:
            columns = columns.quantized(self.config.tick_bits)
        return columns

    def _rebuild_stores(self) -> None:
        tracer = self.obs.tracer
        self._engine = self._full_form = self._exact_engine = None
        columns = self._log_columns()
        if self.network is None:
            return
        config = self.config
        self._sketch = None
        if config is not None and config.sketch_bins:
            with tracer.span(
                "ingest.build_sketch", bins=config.sketch_bins
            ):
                from ..forms import EdgeCountSketch

                self._sketch = EdgeCountSketch.from_columns(
                    self.network.observed_columns(columns),
                    bins=config.sketch_bins,
                )
        if config is not None and config.streaming:
            with tracer.span("ingest.build_stream", events=len(columns)):
                store = StreamingEventStore(
                    self.network,
                    compact_every=config.compact_every,
                    compress=config.compress,
                    tick_bits=config.tick_bits,
                )
                store.append_events(columns)
            self._streaming = store
            self._form = None
            self._store = store
            return
        self._streaming = None
        with tracer.span("ingest.build_form", network=self.network.name):
            self._form = self.network.build_form(
                columns,
                compress=config.compress if config is not None else False,
                tick_bits=config.tick_bits if config is not None else 0,
            )
        if config is not None and config.store != "exact":
            factory = _MODEL_FACTORIES[config.store]
            with tracer.span("ingest.fit_models", store=config.store):
                self._store = ModeledCountStore.fit(self._form, factory)
        else:
            self._store = self._form

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def fault_injector(
        self, config: FaultConfig = FaultConfig()
    ) -> FaultInjector:
        """Seeded fault schedule over the deployed network's sensors."""
        if self.network is None:
            raise QueryError("deploy() first")
        return FaultInjector.for_network(self.network, config)

    def engine(
        self,
        faults: Optional[FaultInjector] = None,
        dispatch_strategy: str = "perimeter_walk",
        retry_policy: Optional[RetryPolicy] = None,
    ) -> QueryEngine:
        """A query engine over the deployed network and current store.

        ``query()`` keeps one for its default dispatch and builds one
        per call that injects faults; a query loop under faults wants
        a persistent engine so the dispatcher (and its injector's
        attempt stream) survives across queries.
        """
        self._guard_open()
        if self.network is None or self._store is None:
            raise QueryError("deploy() and ingest first")
        return QueryEngine(
            self.network,
            self._store,
            instrumentation=self.obs,
            faults=faults,
            dispatch_strategy=dispatch_strategy,
            retry_policy=retry_policy,
            flight=self.flight,
            sketch=self._sketch,
        )

    def close(self) -> None:
        """Shut the framework down: close the streaming store and mark
        the framework terminal.  Further
        ``deploy``/``ingest_events``/``engine``/``query`` calls raise a
        structured :class:`~repro.errors.QueryError` instead of
        failing deep inside a released resource.  Idempotent."""
        self._engine = self._exact_engine = None
        if self._streaming is not None:
            self._streaming.close()
        self._closed = True

    def flight_log(self) -> FlightRecorder:
        """The always-on query flight recorder shared by every engine
        this framework hands out: the most recent results themselves
        (``flight_log().records[-1] is fw.query(...)``) plus the
        promoted slow-query ring.  Dump it with
        ``flight_log().dump(path)``."""
        return self.flight

    def query(
        self,
        box: BBox,
        t1: float,
        t2: float,
        kind: str = STATIC,
        bound: str = LOWER,
        faults: Optional[FaultInjector] = None,
        dispatch_strategy: str = "perimeter_walk",
        retry_policy: Optional[RetryPolicy] = None,
        max_error: Optional[float] = None,
    ) -> QueryResult:
        """Answer a range count query on the deployed sampled network.

        With a ``faults`` injector the dispatch is simulated
        fault-tolerantly: the result may be a partial aggregate flagged
        ``approximate`` carrying a :class:`~repro.query.QueryDegradation`
        error bound.

        ``max_error`` is the absolute count-error tolerance for the
        sketch fast tier (deployments with ``sketch_bins`` > 0): when
        the sketch's worst-case bound fits, the answer is served from
        the summary without contacting any sensor and carries the
        bound in ``result.degradation`` (``strategy="sketch"``).
        """
        query = RangeQuery(
            box, t1, t2, kind=kind, bound=bound, max_error=max_error
        )
        dispatch = (faults, dispatch_strategy, retry_policy)
        if faults is None and retry_policy is None:
            # Default dispatch: one engine serves every call until what
            # it was built from changes (the store, the sketch, the
            # strategy, the metrics registry current at the call).  The
            # engine keeps store and sketch alive and the key keeps the
            # registry, so no identity can be reused.
            key = (
                id(self._store), id(self._sketch), dispatch_strategy,
                get_registry(),
            )
            if self._engine is None or self._engine[0] != key:
                self._engine = (key, self.engine(*dispatch))
            return self._engine[1].execute(query)
        return self.engine(*dispatch).execute(query)

    def explain(
        self,
        box: BBox,
        t1: float,
        t2: float,
        kind: str = STATIC,
        bound: str = LOWER,
        faults: Optional[FaultInjector] = None,
        dispatch_strategy: str = "perimeter_walk",
        retry_policy: Optional[RetryPolicy] = None,
    ):
        """EXPLAIN one query: execute it and return the measured
        :class:`~repro.obs.QueryExplain` plan.

        The plan is the query's record, with its per-phase times.
        """
        engine = self.engine(
            faults=faults,
            dispatch_strategy=dispatch_strategy,
            retry_policy=retry_policy,
        )
        return engine.explain(
            RangeQuery(box, t1, t2, kind=kind, bound=bound)
        )

    def query_exact(
        self,
        box: BBox,
        t1: float,
        t2: float,
        kind: str = STATIC,
    ) -> QueryResult:
        """Exact answer from the full (unsampled) sensing graph.

        The evaluation's ground truth, not part of the deployment: the
        first call after an ingest or a re-deploy builds the reference
        form over the whole (quantized, with ``compress=True``) log,
        and the full network too on the first call ever.  That build
        happens outside the engine, so ``result.elapsed`` times the
        exact query alone.
        """
        self._guard_open()
        if self._full_form is None:
            if not self._ingested and self._streaming is None:
                raise QueryError("ingest trips or events first")
            with self.obs.tracer.span("ingest.build_form", network="full"):
                if self._full is None:
                    self._full = full_network(self.domain)
                self._full_form = self._full.build_form(self._log_columns())
        # One engine until the reference form or the registry changes;
        # like ``query``'s, it keeps the form alive, so no id is reused.
        key = (id(self._full_form), get_registry())
        if self._exact_engine is None or self._exact_engine[0] != key:
            self._exact_engine = (key, QueryEngine(
                self._full, self._full_form, access_mode="flood",
                instrumentation=self.obs,
            ))
        query = RangeQuery(box, t1, t2, kind=kind)
        return self._exact_engine[1].execute(query)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    @property
    def streaming_store(self) -> Optional[StreamingEventStore]:
        """The live streaming store (``None`` unless deployed with
        ``streaming=True``)."""
        return self._streaming

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def storage_bytes(self) -> int:
        """Storage of the deployed count representation.

        Exact stores report the nominal 8 bytes per stored timestamp
        (the paper's storage accounting); compressed deployments
        report the actual compressed footprint from
        :meth:`storage_report`.
        """
        store = self._store
        if store is None:
            return 0
        if isinstance(store, ModeledCountStore):
            return store.storage_bytes
        if self.config.compress:
            return int(store.storage_report()["total_bytes"])
        return store.total_events * 8

    def storage_report(self) -> dict:
        """Unified bytes-per-component accounting of every live tier.

        Returns ``{"stores": [report, ...], "total_bytes": int,
        "derived_bytes": int}`` where each report follows the common
        store schema (``{"store", "events", "total_bytes",
        "derived_bytes", "components"}``) — the deployed count store
        plus, when present, the sketch tier.  ``total_bytes`` is the
        stored format; ``derived_bytes`` what in-memory-only indexes
        rebuilt from it add to the resident cost.
        Surfaced by ``repro demo --storage``.
        """
        reports = []
        store = self._store
        if store is not None and hasattr(store, "storage_report"):
            reports.append(store.storage_report())
        if self._sketch is not None:
            reports.append(self._sketch.storage_report())
        return {
            "stores": reports,
            "total_bytes": int(
                sum(r["total_bytes"] for r in reports)
            ),
            "derived_bytes": int(
                sum(r["derived_bytes"] for r in reports)
            ),
        }

    def __repr__(self) -> str:
        deployed = self.network.name if self.network else "undeployed"
        return (
            f"InNetworkFramework({self.domain!r}, deployed={deployed!r}, "
            f"events={self._logged_events()})"
        )

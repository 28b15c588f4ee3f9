"""Query descriptions and results."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from ..errors import QueryError
from ..geometry import BBox

#: Approximation modes of §4.6 (Fig. 7): R2 (maximal enclosed region)
#: and R1 (minimal containing region).
LOWER = "lower"
UPPER = "upper"

#: Query kinds of §3.3.
STATIC = "static"
TRANSIENT = "transient"


@dataclass(frozen=True)
class RangeQuery:
    """A spatiotemporal range count query.

    ``box`` is the rectangular spatial range (resolved to a union of
    sensing-graph faces at execution time, §5.1.5); ``(t1, t2)`` the
    temporal interval; ``kind`` selects the static or transient count
    (§3.3); ``bound`` the lower or upper spatial approximation (§4.6).

    ``max_error`` is the caller's absolute count-error tolerance: when
    set, an engine holding an error-bounded sketch may answer from the
    sketch whenever its worst-case bound is within the tolerance (the
    result then carries a ``QueryDegradation`` with
    ``strategy="sketch"``); ``None`` (the default) always takes the
    exact path.
    """

    box: BBox
    t1: float
    t2: float
    kind: str = STATIC
    bound: str = LOWER
    max_error: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.t1 <= self.t2:  # False for NaN too
            raise QueryError(f"inverted or NaN interval [{self.t1}, {self.t2}]")
        if self.kind not in (STATIC, TRANSIENT):
            raise QueryError(f"unknown query kind {self.kind!r}")
        if self.bound not in (LOWER, UPPER):
            raise QueryError(f"unknown bound {self.bound!r}")
        if self.max_error is not None and not self.max_error >= 0:
            raise QueryError(f"max_error must be >= 0, not {self.max_error}")

    def with_bound(self, bound: str) -> "RangeQuery":
        return replace(self, bound=bound)

    def static_times(self, static_eval: str) -> Tuple[float, ...]:
        """The snapshot times a static count over the interval reads
        (Theorem 4.2 gives N(t) for any t): its end, its start, or
        both — the count is then the smaller of the two."""
        if static_eval == "end":
            return (self.t2,)
        if static_eval == "start":
            return (self.t1,)
        return (self.t1, self.t2)


@dataclass(frozen=True)
class QueryDegradation:
    """Fault outcome of a query dispatched over a failing network.

    Attached to :class:`QueryResult` when fault injection skipped part
    of the perimeter.  ``error_bound`` is the *computable* bound on the
    absolute count error: the boundary walls whose owning sensors were
    all skipped contribute nothing to the partial aggregate, and each
    can contribute at most the largest per-wall magnitude observed on
    the reached walls (plus one count of slack per lost wall) — so
    ``|exact_fault_free - degraded| <= error_bound`` whenever the lost
    walls are no heavier than the heaviest reached wall.
    """

    #: Perimeter sensors whose partial aggregates are missing.
    skipped_sensors: Tuple[int, ...]
    #: Boundary walls lost because every owning sensor was skipped.
    lost_walls: int
    #: Total boundary walls of the query's region approximation.
    boundary_walls: int
    #: Bound on the absolute count error of the degraded value.
    error_bound: float
    #: Fraction of boundary walls still aggregated into the value.
    coverage: float
    #: Dispatch strategy that produced this outcome.
    strategy: str = "perimeter_walk"
    #: Skip-ahead detours taken by the perimeter walk.
    detours: int = 0
    #: Server-mediated stitches of broken walk segments.
    server_stitches: int = 0
    #: Contact retries and message drops during the dispatch.
    retries: int = 0
    drops: int = 0

    @property
    def lost_fraction(self) -> float:
        """Lost walls' share of the boundary chain."""
        if not self.boundary_walls:
            return 0.0
        return self.lost_walls / self.boundary_walls


@dataclass(slots=True)
class QueryResult:
    """The one record of one executed query: the answer, what producing
    it touched and cost, and — once a
    :class:`~repro.obs.FlightRecorder` has kept it — its place in the
    flight log.  :meth:`~repro.query.pipeline.QueryAccounting.record`
    is the only place one is built for an engine; the flight ring, the
    slow-query promotion, EXPLAIN and the figure scripts all read this
    object, none keeps a copy.

    The fields up to ``degradation`` are the answer and take part in
    equality; the measured internals and the recorder's stamps after
    them do not (``compare=False``).
    """

    query: RangeQuery
    value: float
    missed: bool
    #: Sensing regions (faces of the executing network) used.
    regions: Tuple[int, ...] = ()
    #: Monitored walls on the region perimeter (edges accessed).
    edges_accessed: int = 0
    #: Communication sensors contacted.
    nodes_accessed: int = 0
    #: Hop proxy for in-network aggregation routing.
    hops: int = 0
    #: Wall-clock evaluation time in seconds.  Under batched execution
    #: (:meth:`~repro.query.QueryEngine.execute_batch`) this excludes
    #: shared plan work, which is metered separately — see
    #: ``shared_fill_s`` and ``cache_hits``; a single query's includes
    #: whatever its engine's plan table did not serve.
    elapsed: float = 0.0
    #: True when the value is a partial aggregate: fault injection
    #: skipped perimeter sensors, so part of the boundary integral is
    #: missing (bounded by ``degradation.error_bound``).
    approximate: bool = False
    #: Fault outcome; None when the dispatch lost nothing.
    degradation: Optional[QueryDegradation] = None

    # -- measured internals, set by ``finish`` -------------------------
    #: Executor that ran: "compiled", "python" or "sharded".
    planner: str = field(default="", compare=False)
    #: Junctions the query rectangle resolved to (|R|, §5.1.5).
    junction_count: int = field(default=0, compare=False)
    #: Wall seconds per stage that ran: the plan phases and
    #: ``integrate`` of a single-process query (none of the plan phases
    #: when its engine's plan table served them; a batched query
    #: reports the two routing phases of a pair the batch planned — the
    #: fill it triggered, 0.0 on a hit — and its share of the one
    #: integration); route / scatter / worker_wait / merge of the whole
    #: batch for a scattered one.
    stage_s: Dict[str, float] = field(default_factory=dict, compare=False)
    #: Per-table hit flags (``junctions`` / ``regions`` / ``boundary`` /
    #: ``sensors``) of a batched query, or of a single one its engine's
    #: plan table served; empty on a single query's first plan and on
    #: a scattered one.
    cache_hits: Dict[str, bool] = field(default_factory=dict, compare=False)
    #: Shared plan seconds this query *triggered* in its batch
    #: (excluded from ``elapsed`` so per-query times are comparable).
    shared_fill_s: float = field(default=0.0, compare=False)
    #: Shards the query was scattered to (sharded engine only).
    fanout: int = field(default=0, compare=False)
    #: Data version of the store the query ran against (``None`` on a
    #: static, build-once store).
    generation: Optional[int] = field(default=None, compare=False)

    # -- stamped by the flight recorder that kept the record -----------
    seq: int = field(default=0, compare=False)
    wall_time: float = field(default=0.0, compare=False)
    #: ``elapsed`` strictly exceeded the recorder's slow threshold.
    slow: bool = field(default=False, compare=False)
    #: Slow-query promotion payload (stage times and internals) and
    #: the memory watermarks read on that strict slow path only
    #: (:func:`repro.obs.memory_snapshot`).
    detail: Optional[Dict[str, Any]] = field(default=None, compare=False)
    peak_rss_bytes: Optional[int] = field(default=None, compare=False)
    alloc_peak_bytes: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.missed and self.value:
            raise QueryError("a missed query cannot carry a count")
        if self.approximate and self.degradation is None:
            raise QueryError(
                "an approximate result must carry its degradation"
            )

    @property
    def cache_served(self) -> bool:
        """True when every plan table this query used served it from a
        row an earlier use had filled — earlier in its batch, or in any
        earlier call on its engine."""
        hits = self.cache_hits
        return bool(hits) and all(hits.values())

    @property
    def boundary_length(self) -> int:
        """Length of the boundary chain of the approximation (|∂R|):
        the walls accessed plus, on a degraded answer, the lost ones."""
        degradation = self.degradation
        if degradation is None:
            return self.edges_accessed
        return degradation.boundary_walls

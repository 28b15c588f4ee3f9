"""Query EXPLAIN: a compact text plan of what one execution did.

``EXPLAIN`` for the in-network engine: which resolution pipeline ran
(compiled CSR planner vs reference python path), what the rectangle
resolved to (|R| junctions), which regions approximated it, how long
the boundary chain was (|∂R|), which batch caches served it, how many
sensors the dispatch touched, per-phase wall times, and — under fault
injection — the degradation outcome and error bound.

Everything is read from the engine's *measured* internals (the
:class:`~repro.obs.QueryProvenance` attached to the result plus the
result's own accounting), never re-derived, so the plan always matches
what actually executed — the acceptance test asserts field-for-field
equality against a plain ``execute()`` of the same query.

Build one via :meth:`repro.query.QueryEngine.explain` (which runs the
query with provenance forced on) or :func:`build_explain` from an
already-executed provenance-carrying result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from ..query.engine import QueryEngine
    from ..query.result import QueryResult
    from ..query.sharded import ShardedQueryEngine

#: Phase order of the execution pipeline (engine span names).
PHASES = (
    "resolve_junctions",
    "approximate_region",
    "build_boundary",
    "integrate",
    "account_sensors",
)


@dataclass(frozen=True)
class QueryExplain:
    """The measured plan of one query execution."""

    # Query description.
    kind: str
    bound: str
    box: Tuple[float, float, float, float]
    t1: float
    t2: float
    # Engine configuration.
    planner: str
    access_mode: str
    static_eval: str
    store: str
    network: str
    # Planner internals (compiled planner only; empty otherwise).
    planner_stats: Mapping[str, int] = field(default_factory=dict)
    # Measured execution.
    missed: bool = False
    junction_count: int = 0
    region_ids: Tuple[int, ...] = ()
    boundary_length: int = 0
    sensors_accessed: int = 0
    edges_accessed: int = 0
    value: float = 0.0
    elapsed_s: float = 0.0
    phase_s: Mapping[str, float] = field(default_factory=dict)
    cache_hits: Mapping[str, bool] = field(default_factory=dict)
    # Fault outcome (None when the dispatch lost nothing).
    dispatch_strategy: Optional[str] = None
    skipped_sensors: Tuple[int, ...] = ()
    lost_walls: int = 0
    error_bound: Optional[float] = None
    # Scatter-gather execution (sharded engine only; 0/empty otherwise).
    shards: int = 0
    fanout: int = 0
    stage_s: Mapping[str, float] = field(default_factory=dict)
    # Sampled per-stage self time from the continuous profiler
    # (leaf span name -> seconds; empty without a profiler).  Unlike
    # ``phase_s`` this is *cumulative* sampler evidence across the
    # process lifetime, not this execution's wall time.
    profile_self_s: Mapping[str, float] = field(default_factory=dict)

    def format(self) -> str:
        """The compact text plan."""
        x0, y0, x1, y1 = self.box
        lines = [
            f"QUERY PLAN  {self.kind}/{self.bound}  "
            f"box=[{x0:.1f},{y0:.1f} .. {x1:.1f},{y1:.1f}]  "
            f"t=[{self.t1:g},{self.t2:g}]",
            f"  engine: planner={self.planner} store={self.store} "
            f"network={self.network} access={self.access_mode} "
            f"static_eval={self.static_eval}",
        ]
        if self.planner_stats:
            stats = " ".join(
                f"{key}={value}"
                for key, value in sorted(self.planner_stats.items())
            )
            lines.append(f"  index: {stats}")
        lines.append(
            f"  resolve_junctions   |R|={self.junction_count}"
            f"{self._phase_ms('resolve_junctions')}"
        )
        if self.missed:
            lines.append("  -> MISS (no region approximation)")
            lines.append(f"  total {self.elapsed_s * 1e3:.3f}ms")
            return "\n".join(lines)
        region_preview = ",".join(str(r) for r in self.region_ids[:8])
        if len(self.region_ids) > 8:
            region_preview += ",..."
        lines.append(
            f"  approximate_region  regions={len(self.region_ids)} "
            f"[{region_preview}]{self._phase_ms('approximate_region')}"
        )
        lines.append(
            f"  build_boundary      |dR|={self.boundary_length}"
            f"{self._phase_ms('build_boundary')}"
        )
        lines.append(
            f"  integrate           value={self.value:g}"
            f"{self._phase_ms('integrate')}"
        )
        lines.append(
            f"  account_sensors     sensors={self.sensors_accessed} "
            f"edges={self.edges_accessed}"
            f"{self._phase_ms('account_sensors')}"
        )
        if self.cache_hits:
            served = ",".join(
                cache for cache, hit in sorted(self.cache_hits.items()) if hit
            )
            lines.append(f"  batch caches: hit[{served or '-'}]")
        if self.shards:
            stages = " ".join(
                f"{stage}={self.stage_s[stage] * 1e3:.3f}ms"
                for stage in ("route", "scatter", "worker_wait", "merge")
                if stage in self.stage_s
            )
            lines.append(
                f"  scatter_gather      shards={self.shards} "
                f"fanout={self.fanout}" + (f"  [{stages}]" if stages else "")
            )
        if self.dispatch_strategy is not None:
            bound_txt = (
                "inf"
                if self.error_bound is not None
                and math.isinf(self.error_bound)
                else f"{self.error_bound:g}"
                if self.error_bound is not None
                else "0"
            )
            lines.append(
                f"  dispatch            strategy={self.dispatch_strategy} "
                f"skipped={len(self.skipped_sensors)} "
                f"lost_walls={self.lost_walls} bound=+-{bound_txt}"
            )
        if self.profile_self_s:
            ranked = sorted(
                self.profile_self_s.items(), key=lambda kv: -kv[1]
            )[:6]
            entries = " ".join(
                f"{name}={seconds * 1e3:.1f}ms" for name, seconds in ranked
            )
            lines.append(f"  profile self-time   {entries}")
        lines.append(f"  total {self.elapsed_s * 1e3:.3f}ms")
        return "\n".join(lines)

    def _phase_ms(self, phase: str) -> str:
        seconds = self.phase_s.get(phase)
        if seconds is None:
            return ""
        return f"  {seconds * 1e3:.3f}ms"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "bound": self.bound,
            "box": list(self.box),
            "t1": self.t1,
            "t2": self.t2,
            "planner": self.planner,
            "access_mode": self.access_mode,
            "static_eval": self.static_eval,
            "store": self.store,
            "network": self.network,
            "planner_stats": dict(self.planner_stats),
            "missed": self.missed,
            "junction_count": self.junction_count,
            "region_ids": list(self.region_ids),
            "boundary_length": self.boundary_length,
            "sensors_accessed": self.sensors_accessed,
            "edges_accessed": self.edges_accessed,
            "value": self.value,
            "elapsed_s": self.elapsed_s,
            "phase_s": dict(self.phase_s),
            "cache_hits": dict(self.cache_hits),
            "dispatch_strategy": self.dispatch_strategy,
            "skipped_sensors": list(self.skipped_sensors),
            "lost_walls": self.lost_walls,
            "error_bound": self.error_bound,
            "shards": self.shards,
            "fanout": self.fanout,
            "stage_s": dict(self.stage_s),
            "profile_self_s": dict(self.profile_self_s),
        }


def _profile_self_s(profiler) -> Dict[str, float]:
    """Sampled self time per leaf span, ``query.`` prefix stripped so
    the plan's profile line aligns with the phase names."""
    if profiler is None:
        return {}
    out: Dict[str, float] = {}
    for leaf, seconds in profiler.table.leaf_self_seconds().items():
        if leaf == "(no span)":
            continue
        name = leaf[6:] if leaf.startswith("query.") else leaf
        out[name] = out.get(name, 0.0) + seconds
    return out


def build_explain(
    engine: "QueryEngine", result: "QueryResult"
) -> QueryExplain:
    """Fold an executed, provenance-carrying result into a plan.

    Raises ``ValueError`` when the result carries no provenance —
    the plan reports measured internals only, never re-derived ones.
    """
    provenance = result.provenance
    if provenance is None:
        raise ValueError(
            "explain needs a provenance-carrying result; execute with "
            "Instrumentation(provenance=True) or use QueryEngine.explain()"
        )
    query = result.query
    planner_stats: Dict[str, int] = engine._planner.describe()
    degradation = result.degradation
    dispatch_strategy = None
    if engine.faults is not None:
        dispatch_strategy = engine.dispatch_strategy
    box = query.box
    return QueryExplain(
        kind=query.kind,
        bound=query.bound,
        box=(box.min_x, box.min_y, box.max_x, box.max_y),
        t1=query.t1,
        t2=query.t2,
        planner=engine.planner_in_use,
        access_mode=engine.access_mode,
        static_eval=engine.static_eval,
        store=type(engine.store).__name__,
        network=engine.network.name,
        planner_stats=planner_stats,
        missed=result.missed,
        junction_count=provenance.junction_count,
        region_ids=tuple(provenance.region_ids),
        boundary_length=provenance.boundary_length,
        sensors_accessed=result.nodes_accessed,
        edges_accessed=result.edges_accessed,
        value=result.value,
        elapsed_s=result.elapsed,
        phase_s=dict(provenance.phase_s),
        cache_hits=dict(provenance.cache_hits),
        dispatch_strategy=dispatch_strategy,
        skipped_sensors=(
            degradation.skipped_sensors if degradation is not None else ()
        ),
        lost_walls=degradation.lost_walls if degradation is not None else 0,
        error_bound=(
            degradation.error_bound if degradation is not None else None
        ),
        profile_self_s=_profile_self_s(engine.obs.profiler),
    )


def build_sharded_explain(
    engine: "ShardedQueryEngine",
    result: "QueryResult",
    *,
    junction_count: int,
    fanout: int,
    stage_s: Mapping[str, float],
) -> QueryExplain:
    """Fold a scatter-gather execution into a plan.

    The sharded path has no single-process provenance: the plan is
    assembled from the parent's measured routing (junctions resolved,
    shards reached, per-stage wall times) and the merged shard
    accounting already on the result.  Field parity with
    :func:`build_explain` holds for everything region-determined —
    regions, boundary length, sensors, edges, value — because the
    gather re-emits results field-identical to the single-process
    compiled planner.
    """
    query = result.query
    box = query.box
    return QueryExplain(
        kind=query.kind,
        bound=query.bound,
        box=(box.min_x, box.min_y, box.max_x, box.max_y),
        t1=query.t1,
        t2=query.t2,
        planner="sharded",
        access_mode=engine.access_mode,
        static_eval=engine.static_eval,
        store=f"{engine.shards}xCompiledTrackingForm(shm)",
        network=engine.network.name,
        planner_stats=engine._planner.describe(),
        missed=result.missed,
        junction_count=junction_count,
        region_ids=tuple(result.regions),
        boundary_length=result.edges_accessed,
        sensors_accessed=result.nodes_accessed,
        edges_accessed=result.edges_accessed,
        value=result.value,
        elapsed_s=result.elapsed,
        shards=engine.shards,
        fanout=fanout,
        stage_s=dict(stage_s),
        profile_self_s=_profile_self_s(engine.obs.profiler),
    )

"""Query EXPLAIN: a compact text plan of what one execution did.

``EXPLAIN`` for the in-network engine: which resolution pipeline ran
(compiled CSR planner or reference python path), what the rectangle
resolved to (|R| junctions), which regions
approximated it, how long the boundary chain was (|∂R|), which batch
caches served it, how many sensors the dispatch touched, per-stage wall
times, and — under fault injection — the degradation outcome and error
bound.

A :class:`QueryExplain` is two things and no copy of either: the
*record* of an actual execution (the :class:`~repro.query.QueryResult`
the engine returned — measured, never re-derived, so the plan always
matches what ran) and a description of the *engine* that ran it.
:meth:`QueryExplain.format` and :meth:`QueryExplain.as_dict` are views
over the two.

Build one via ``engine.explain(query)`` (which runs the query) or
:func:`build_explain` from any result an engine returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from ..query.result import QueryResult


@dataclass(frozen=True)
class QueryExplain:
    """The measured plan of one query execution."""

    #: What ran: answer, accounting, internals and stage times.
    record: "QueryResult"
    #: What ran it: ``access_mode``, ``static_eval``, ``store``,
    #: ``network``, ``planner_stats`` (the planner's index sizes) and
    #: ``dispatch_strategy`` (``None`` without fault injection).
    engine: Mapping[str, Any]

    def format(self) -> str:
        """The compact text plan."""
        record, engine = self.record, self.engine
        query, box = record.query, record.query.box
        lines = [
            f"QUERY PLAN  {query.kind}/{query.bound}  "
            f"box=[{box.min_x:.1f},{box.min_y:.1f} .. "
            f"{box.max_x:.1f},{box.max_y:.1f}]  "
            f"t=[{query.t1:g},{query.t2:g}]",
            f"  engine: planner={record.planner} store={engine['store']} "
            f"network={engine['network']} access={engine['access_mode']} "
            f"static_eval={engine['static_eval']}",
        ]

        def row(stage: str, text: str) -> None:
            seconds = record.stage_s.get(stage)
            timed = "" if seconds is None else f"  {seconds * 1e3:.3f}ms"
            lines.append(f"  {stage:<20}{text}{timed}")

        if engine["planner_stats"]:
            stats = sorted(engine["planner_stats"].items())
            lines.append(
                "  index: " + " ".join(f"{key}={value}" for key, value in stats)
            )
        row("resolve_junctions", f"|R|={record.junction_count}")
        total = f"  total {record.elapsed * 1e3:.3f}ms"
        if record.missed:
            lines += ["  -> MISS (no region approximation)", total]
            return "\n".join(lines)
        regions = record.regions
        preview = ",".join(str(r) for r in regions[:8])
        if len(regions) > 8:
            preview += ",..."
        row("approximate_region", f"regions={len(regions)} [{preview}]")
        row("build_boundary", f"|dR|={record.boundary_length}")
        row("integrate", f"value={record.value:g}")
        row(
            "account_sensors",
            f"sensors={record.nodes_accessed} edges={record.edges_accessed}",
        )
        if record.cache_hits:
            served = ",".join(
                cache for cache, hit in sorted(record.cache_hits.items()) if hit
            )
            lines.append(f"  batch caches: hit[{served or '-'}]")
        if engine["dispatch_strategy"] is not None:
            lost = record.degradation
            bound = 0.0 if lost is None else lost.error_bound
            row(
                "dispatch",
                f"strategy={engine['dispatch_strategy']} "
                f"skipped={len(lost.skipped_sensors) if lost else 0} "
                f"lost_walls={lost.lost_walls if lost else 0} "
                f"bound=+-{'inf' if math.isinf(bound) else format(bound, 'g')}",
            )
        lines.append(total)
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe flat view: the query, the engine, the record."""
        record = self.record
        query, box = record.query, record.query.box
        lost = record.degradation
        return {
            "kind": query.kind,
            "bound": query.bound,
            "box": [box.min_x, box.min_y, box.max_x, box.max_y],
            "t1": query.t1,
            "t2": query.t2,
            "planner": record.planner,
            **self.engine,
            "missed": record.missed,
            "junction_count": record.junction_count,
            "region_ids": list(record.regions),
            "boundary_length": record.boundary_length,
            "sensors_accessed": record.nodes_accessed,
            "edges_accessed": record.edges_accessed,
            "value": record.value,
            "elapsed_s": record.elapsed,
            "stage_s": dict(record.stage_s),
            "cache_hits": dict(record.cache_hits),
            "fanout": record.fanout,
            "skipped_sensors": list(lost.skipped_sensors) if lost else [],
            "lost_walls": lost.lost_walls if lost else 0,
            "error_bound": lost.error_bound if lost else None,
        }


def build_explain(engine, result: "QueryResult") -> QueryExplain:
    """The plan of ``result``, which a
    :class:`~repro.query.QueryEngine` ``engine`` executed."""
    faulty = engine.faults is not None
    return QueryExplain(
        record=result,
        engine={
            "access_mode": engine.access_mode,
            "static_eval": engine.static_eval,
            "store": type(engine.store).__name__,
            "network": engine.network.name,
            "planner_stats": engine._planner.describe(),
            "dispatch_strategy": engine.dispatch_strategy if faulty else None,
        },
    )

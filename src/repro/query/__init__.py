"""Query regions, the query engine and results (system S9)."""

from .engine import (
    DISPATCH_STRATEGIES,
    PLANNER_MODES,
    STATIC_EVAL_MODES,
    QueryEngine,
)
from .planner import (
    BoundaryChain,
    CompiledQueryPlanner,
    PythonQueryPlanner,
)
from .sharded import SHARDED_STAGES, ShardedQueryEngine, shard_of_edges
from .result import (
    LOWER,
    STATIC,
    TRANSIENT,
    UPPER,
    QueryDegradation,
    QueryResult,
    RangeQuery,
)

__all__ = [
    "BoundaryChain",
    "CompiledQueryPlanner",
    "DISPATCH_STRATEGIES",
    "LOWER",
    "PLANNER_MODES",
    "PythonQueryPlanner",
    "QueryDegradation",
    "QueryEngine",
    "QueryResult",
    "RangeQuery",
    "SHARDED_STAGES",
    "STATIC",
    "ShardedQueryEngine",
    "shard_of_edges",
    "STATIC_EVAL_MODES",
    "TRANSIENT",
    "UPPER",
]

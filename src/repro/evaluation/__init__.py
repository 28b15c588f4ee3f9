"""Evaluation harness (system S14): metrics, query workloads, the
shared experiment pipeline and table rendering."""

from .harness import (
    DEFAULT_CONFIG,
    SELECTOR_NAMES,
    SMALL_CONFIG,
    EvalReport,
    Pipeline,
    PipelineConfig,
    evaluate,
    get_pipeline,
)
from .figplot import LineChart
from .metrics import Summary, ratio, relative_error
from .tables import format_table
from .workloads import QueryWorkloadConfig, generate_queries, queries_to_regions

__all__ = [
    "DEFAULT_CONFIG",
    "EvalReport",
    "LineChart",
    "Pipeline",
    "PipelineConfig",
    "QueryWorkloadConfig",
    "SELECTOR_NAMES",
    "SMALL_CONFIG",
    "Summary",
    "evaluate",
    "format_table",
    "generate_queries",
    "get_pipeline",
    "queries_to_regions",
    "ratio",
    "relative_error",
]

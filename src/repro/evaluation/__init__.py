"""Experiment definitions the benchmarks share (system S14): the
experiment scale, the random query workloads and the relative-error
metric.  The figure harness that runs on them lives under
``benchmarks/lib/``."""

from .metrics import relative_error
from .workloads import (
    DEFAULT_CONFIG,
    SMALL_CONFIG,
    PipelineConfig,
    QueryWorkloadConfig,
    generate_queries,
)

__all__ = [
    "DEFAULT_CONFIG",
    "PipelineConfig",
    "QueryWorkloadConfig",
    "SMALL_CONFIG",
    "generate_queries",
    "relative_error",
]

"""Streaming ingestion: append-only event intake with incremental
form maintenance (system S12).

The paper's motivating workload (Fig. 1 cell-tower load balancing) is a
*live stream* of edge-crossing events; this package provides the
append-only path the batch ``columnarize → build_form`` pipeline lacks:
an LSM-style :class:`StreamingEventStore` keeping one columnar
in-memory tail of recent crossings beside immutable CSR-columnar
blocks, compacted from it and merged by size tier, so queries stay
exact at every instant without a full rebuild per append and an event
is rewritten only logarithmically often.
"""

from .store import (
    DEFAULT_COMPACT_EVERY,
    DEFAULT_MAX_BLOCKS,
    StreamingEventStore,
    replay,
)

__all__ = [
    "DEFAULT_COMPACT_EVERY",
    "DEFAULT_MAX_BLOCKS",
    "StreamingEventStore",
    "replay",
]

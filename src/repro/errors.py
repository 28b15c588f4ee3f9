"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GeometryError(ReproError):
    """Invalid or degenerate geometric input (e.g. zero-length segment)."""


class PlanarityError(ReproError):
    """A graph operation required a planar embedding that does not hold."""


class GraphStructureError(ReproError):
    """A graph is malformed for the requested operation (missing node,
    disconnected component where connectivity is required, ...)."""


class SelectionError(ReproError):
    """Sensor-selection failure (budget too small / too large, empty
    candidate set, malformed strata, ...)."""


class QueryError(ReproError):
    """Malformed query (empty region, inverted time interval, unknown
    approximation mode, ...)."""


class ModelError(ReproError):
    """Learned count-model failure (fitting on empty data, inference
    before fit, ...)."""


class WorkloadError(ReproError):
    """Trajectory or query workload generation failure."""


class ConfigurationError(ReproError):
    """Invalid framework configuration."""

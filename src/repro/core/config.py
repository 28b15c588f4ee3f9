"""Framework configuration."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

#: Districts used by ``planner="sharded"`` when ``shards`` is left at
#: its default of 1.
DEFAULT_SHARDS = 4


@dataclass(frozen=True)
class FrameworkConfig:
    """Deployment configuration for :class:`~repro.core.InNetworkFramework`.

    ``selector`` is one of ``uniform``, ``systematic``, ``stratified``,
    ``kdtree``, ``quadtree`` or ``submodular`` (the latter requires a
    query history).  ``budget`` is the number of communication sensors
    for every selector, ``submodular`` included (its plan's marginal
    cost is then the new incident sensor blocks; the figure harness,
    ``benchmarks/lib``, instead gives that selector an *edge* budget —
    as many monitored walls as a quadtree network of the same sensor
    count — which ``FrameworkConfig`` does not offer).
    ``connectivity`` is ``triangulation`` or ``knn`` (§4.5);
    ``store`` picks the count representation: ``exact`` timestamps or
    one of the learned models (``linear``, ``polynomial``,
    ``piecewise``, ``histogram``) from §4.8.  ``planner`` picks the
    query resolution pipeline: ``auto`` (compiled whenever the store
    supports id-native integration), ``compiled``, ``python`` or
    ``sharded`` (scatter-gather over district shards,
    :class:`~repro.query.ShardedQueryEngine`).  ``shards`` sets the
    district count for the sharded engine; any value > 1 turns
    sharding on regardless of ``planner`` (and ``planner="sharded"``
    with the default ``shards`` uses :data:`DEFAULT_SHARDS`
    districts).  Sharding requires the exact store — learned models
    are not sharded.

    ``streaming`` switches ingestion to the append-only
    :class:`~repro.stream.StreamingEventStore` (LSM-style mutable tail
    + compacted CSR blocks): ``ingest_events`` then updates indexes
    incrementally instead of rebuilding, and ``compact_every`` sets
    the tail size that triggers a compaction.  Streaming requires the
    exact store — learned models refit from scratch.

    ``compress`` switches the exact store to the succinct tier
    (:class:`~repro.forms.CompressedTrackingForm`): timestamps are
    quantized once at ingest to ``2**tick_bits`` ticks per second and
    stored delta-encoded + bit-packed (~4× smaller), with sharded
    workers attaching the compressed shared-memory form directly.
    Query results are byte-identical to the uncompressed store built
    from the same quantized events.  ``sketch_bins`` > 0 additionally
    builds an error-bounded :class:`~repro.forms.EdgeCountSketch` with
    that many time bins; queries carrying ``max_error`` are then
    served from the sketch whenever its worst-case bound fits.

    The flight recorder and the tracer are not deployment settings:
    both are handed to the framework's constructor
    (``InNetworkFramework(..., flight=FlightRecorder(...),
    instrumentation=Instrumentation(tracer=Tracer()))``) and outlive
    any re-deploy.
    """

    selector: str = "quadtree"
    budget: int = 50
    connectivity: str = "triangulation"
    knn_k: int = 5
    store: str = "exact"
    planner: str = "auto"
    shards: int = 1
    seed: int = 0
    streaming: bool = False
    compact_every: int = 4096
    compress: bool = False
    tick_bits: int = 0
    sketch_bins: int = 0

    _SELECTORS = (
        "uniform",
        "systematic",
        "stratified",
        "kdtree",
        "quadtree",
        "submodular",
    )
    _STORES = (
        "exact",
        "linear",
        "polynomial",
        "piecewise",
        "histogram",
        "periodic",
    )

    def __post_init__(self) -> None:
        if self.selector not in self._SELECTORS:
            raise ConfigurationError(
                f"unknown selector {self.selector!r}; "
                f"choose from {self._SELECTORS}"
            )
        if self.connectivity not in ("triangulation", "knn"):
            raise ConfigurationError(
                f"unknown connectivity {self.connectivity!r}"
            )
        if self.store not in self._STORES:
            raise ConfigurationError(
                f"unknown store {self.store!r}; choose from {self._STORES}"
            )
        if self.planner not in ("auto", "compiled", "python", "sharded"):
            raise ConfigurationError(
                f"unknown planner {self.planner!r}; "
                "choose from ('auto', 'compiled', 'python', 'sharded')"
            )
        if self.budget < 2:
            raise ConfigurationError("budget must be at least 2 sensors")
        if self.knn_k < 1:
            raise ConfigurationError("knn_k must be >= 1")
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.sharded and self.store != "exact":
            raise ConfigurationError(
                "sharded querying requires store='exact' (learned "
                "models are not sharded)"
            )
        if self.compact_every < 1:
            raise ConfigurationError("compact_every must be >= 1")
        if self.streaming and self.store != "exact":
            raise ConfigurationError(
                "streaming ingestion requires store='exact' (learned "
                "models refit from scratch, they cannot be appended to)"
            )
        if self.compress and self.store != "exact":
            raise ConfigurationError(
                "compress=True requires store='exact' (learned models "
                "store parameters, not timestamp columns)"
            )
        if not 0 <= self.tick_bits <= 20:
            raise ConfigurationError(
                "tick_bits must be in [0, 20] (2**tick_bits ticks "
                "per second)"
            )
        if self.sketch_bins < 0:
            raise ConfigurationError("sketch_bins must be >= 0")
        if self.sketch_bins and self.store != "exact":
            raise ConfigurationError(
                "sketch_bins requires store='exact' (the sketch bound "
                "is relative to the exact count)"
            )
        if self.sketch_bins and self.streaming:
            raise ConfigurationError(
                "sketch_bins is incompatible with streaming=True (the "
                "sketch is built at ingest and would go stale under "
                "incremental appends)"
            )

    @property
    def sharded(self) -> bool:
        """Whether queries run through the sharded engine."""
        return self.planner == "sharded" or self.shards > 1

    @property
    def effective_shards(self) -> int:
        """District count the sharded engine will use."""
        if self.shards > 1:
            return self.shards
        return DEFAULT_SHARDS if self.planner == "sharded" else 1

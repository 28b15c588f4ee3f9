"""Always-on query flight recorder: a bounded ring of the per-query
records themselves, with slow-query promotion.

A :class:`FlightRecorder` *keeps* the record an engine built for a
query — the :class:`~repro.query.QueryResult` its caller is handed, not
a copy of it — in a ``deque(maxlen=capacity)`` ring, so memory is
bounded no matter how long the process runs and the oldest record is
evicted first.  The hot-path cost is two stamps (``seq``,
``wall_time``), one comparison and one deque append; anything
expensive — the query digest, JSON shaping, the ``degraded`` summary —
is a view computed at dump time (:func:`record_dict`).

A record whose ``elapsed`` exceeds ``slow_threshold_s`` (strictly
greater) is *promoted*: flagged ``slow`` and kept in a second ring that
slow traffic cannot be flushed out of by fast traffic; :meth:`keep`
says so, and the caller attaches a ``detail`` payload (stage times and
internals) and the :func:`memory_snapshot` watermarks while the
evidence is still at hand.

The recorder reads attributes and imports nothing from
:mod:`repro.query`: a record carries its plan phases in ``stage_s``.
The framework exposes its ring
via ``flight_log()``; hand it a sized recorder through the constructor
(``InNetworkFramework(..., flight=FlightRecorder(...))``).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import tracemalloc
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

#: Default ring capacity: enough recent traffic for post-hoc debugging,
#: small enough that an always-on recorder is memory-trivial.
DEFAULT_CAPACITY = 256

#: Slow records kept even after the main ring has cycled past them.
DEFAULT_SLOW_CAPACITY = 32

#: Default promotion threshold in seconds.
DEFAULT_SLOW_THRESHOLD_S = 0.1


def memory_snapshot() -> Dict[str, Optional[int]]:
    """Cheap process-memory snapshot for slow-query flight records.

    ``peak_rss_bytes`` is the high-water resident set of the process
    (``ru_maxrss``); ``alloc_peak_bytes`` is tracemalloc's traced
    allocation peak — ``None`` unless the caller has run
    ``tracemalloc.start()``.  Both reads are O(1): this is safe on the
    strict slow-query promotion path.
    """
    peak_rss: Optional[int] = None
    try:
        import resource

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports kilobytes, macOS bytes.
        peak_rss = int(rss) * (1 if sys.platform == "darwin" else 1024)
    except (ImportError, OSError):  # pragma: no cover - no getrusage
        pass
    alloc_peak = (
        int(tracemalloc.get_traced_memory()[1])
        if tracemalloc.is_tracing()
        else None
    )
    return {"peak_rss_bytes": peak_rss, "alloc_peak_bytes": alloc_peak}


def record_dict(record: Any) -> Dict[str, Any]:
    """JSON-safe flight-log view of one kept record; this is where the
    lazy work (digest, ``degraded`` summary) happens."""
    query = record.query
    out: Dict[str, Any] = {
        "seq": record.seq,
        "wall_time": record.wall_time,
        "digest": query_digest(query, record.generation),
        "kind": getattr(query, "kind", None),
        "bound": getattr(query, "bound", None),
        "planner": record.planner,
        "elapsed_s": record.elapsed,
        "value": record.value,
        "missed": record.missed,
        "fanout": record.fanout,
        "stage_s": dict(record.stage_s),
        "degraded": _degraded(record),
        "generation": record.generation,
        "slow": record.slow,
    }
    if record.peak_rss_bytes is not None:
        out["peak_rss_bytes"] = record.peak_rss_bytes
    if record.alloc_peak_bytes is not None:
        out["alloc_peak_bytes"] = record.alloc_peak_bytes
    if record.detail is not None:
        out["detail"] = record.detail
    return out


def _degraded(record: Any) -> Optional[str]:
    """One-line summary of a fault outcome that lost walls."""
    degradation = record.degradation
    if degradation is None or not degradation.lost_walls:
        return None
    return (
        f"lost_walls={degradation.lost_walls}"
        f" bound={degradation.error_bound:g}"
    )


def query_digest(query: Any, generation: Optional[int] = None) -> str:
    """Deterministic 12-hex-char digest of a query's parameters.

    Same rectangle/interval/kind/bound → same digest, so repeated slow
    queries group in the flight log.  Computed only at dump time.

    ``generation`` is the data version of the store the query ran
    against (streaming stores bump it on every append).  Mixing it in
    keeps digests truthful over mutable data: the same rectangle asked
    before and after an append is a *different* answer and must not
    group.  ``None`` — a static, build-once store — leaves the digest
    exactly as before.
    """
    box = getattr(query, "box", None)
    key = (
        repr(tuple(box) if box is not None else None),
        getattr(query, "t1", None),
        getattr(query, "t2", None),
        getattr(query, "kind", None),
        getattr(query, "bound", None),
    )
    if generation is not None:
        key = key + (int(generation),)
    return hashlib.sha1(repr(key).encode()).hexdigest()[:12]


class FlightRecorder:
    """Bounded always-on ring of per-query records."""

    __slots__ = (
        "capacity",
        "slow_threshold_s",
        "_ring",
        "_slow",
        "_seq",
        "slow_total",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        slow_threshold_s: float = DEFAULT_SLOW_THRESHOLD_S,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"flight-recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.slow_threshold_s = slow_threshold_s
        self._ring: Deque[Any] = deque(maxlen=capacity)
        self._slow: Deque[Any] = deque(maxlen=DEFAULT_SLOW_CAPACITY)
        self._seq = 0
        #: Slow queries ever promoted (survives ring eviction).
        self.slow_total = 0

    # ------------------------------------------------------------------
    def keep(self, record: Any) -> bool:
        """Stamp ``record`` with its sequence number and wall time and
        keep it (the object itself) in the ring.  Returns whether it
        was promoted — ``elapsed`` strictly above the threshold — so a
        slow caller can attach ``detail``."""
        self._seq += 1
        record.seq = self._seq
        record.wall_time = time.time()
        self._ring.append(record)
        if record.elapsed > self.slow_threshold_s:
            record.slow = True
            self._slow.append(record)
            self.slow_total += 1
            return True
        return False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    @property
    def total(self) -> int:
        """Queries ever recorded (monotonic; ring holds the newest)."""
        return self._seq

    @property
    def records(self) -> Tuple[Any, ...]:
        """Current ring contents, oldest first."""
        return tuple(self._ring)

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe dump of both rings plus recorder configuration."""
        return {
            "capacity": self.capacity,
            "slow_threshold_s": self.slow_threshold_s,
            "total": self.total,
            "slow_total": self.slow_total,
            "records": [record_dict(record) for record in self._ring],
            "slow": [record_dict(record) for record in self._slow],
        }

    def dump(self, path: Any) -> None:
        """Write the JSON dump to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=1)

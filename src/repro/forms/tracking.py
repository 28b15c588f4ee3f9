"""Timestamped tracking forms (§4.7.2-4.7.4, Eq. 8, Theorems 4.2/4.3).

The tracking form ``γ`` extends the snapshot counters with the full
sequence of crossing timestamps per directed edge: ``γ⁺((u,v))`` is the
ordered multiset of times at which an object crossed toward ``v``.
Counting events up to (or between) query timestamps and integrating
around a region boundary answers static and transient spatiotemporal
range count queries without ever storing object identifiers.

Timestamps are kept sorted lazily: ingestion usually appends in global
time order (cheap), out-of-order appends flip a dirty flag and trigger
one sort at the next read.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

from ..errors import QueryError
from .snapshot import DirectedEdge, NodeId, _canonical


class _EventSeries:
    """A lazily-sorted list of crossing timestamps for one direction."""

    __slots__ = ("_times", "_dirty")

    def __init__(self) -> None:
        self._times: List[float] = []
        self._dirty = False

    def append(self, t: float) -> None:
        if self._times and t < self._times[-1]:
            self._dirty = True
        self._times.append(t)

    def _ensure_sorted(self) -> None:
        if self._dirty:
            self._times.sort()
            self._dirty = False

    def count_until(self, t: float) -> int:
        """Events with timestamp ``<= t`` (counts are right-continuous)."""
        self._ensure_sorted()
        return bisect.bisect_right(self._times, t)

    def count_between(self, t1: float, t2: float) -> int:
        """Events with timestamp in ``(t1, t2]``."""
        self._ensure_sorted()
        return bisect.bisect_right(self._times, t2) - bisect.bisect_right(
            self._times, t1
        )

    def timestamps(self) -> List[float]:
        self._ensure_sorted()
        return list(self._times)

    def __len__(self) -> int:
        return len(self._times)


@dataclass
class TrackingForm:
    """Per-edge γ⁺/γ⁻ timestamp sequences (Eq. 8) with exact counting.

    This is the *exact* store; :mod:`repro.models` provides drop-in
    replacements that answer the same ``count_entering`` interface from
    constant-size regression models.
    """

    _series: Dict[DirectedEdge, Tuple[_EventSeries, _EventSeries]] = field(
        default_factory=dict
    )
    #: Bumped by every :meth:`record`; stamps the aggregate caches so
    #: ``total_events``/``storage_profile`` don't rescan a store that
    #: has not changed (Fig. 11e rebuilds the CDF repeatedly).
    _generation: int = field(default=0, repr=False, compare=False)
    _total_events_cache: Tuple[int, int] = field(
        default=(-1, 0), repr=False, compare=False
    )
    _storage_profile_cache: Tuple[int, Tuple[int, ...]] = field(
        default=(-1, ()), repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def record(self, u: NodeId, v: NodeId, t: float) -> None:
        """Record an object crossing toward ``v`` at time ``t`` (Eq. 8)."""
        key, forward = _canonical((u, v))
        pair = self._series.get(key)
        if pair is None:
            pair = (_EventSeries(), _EventSeries())
            self._series[key] = pair
        pair[0 if forward else 1].append(float(t))
        self._generation += 1

    # ------------------------------------------------------------------
    # Count function C(γ(e), t) and its range form (§4.7.3-4.7.4)
    # ------------------------------------------------------------------
    def count_entering(self, edge: DirectedEdge, t: float) -> float:
        """``C(γ⁺(e), t)``: crossings in the direction of ``edge`` to time t."""
        key, forward = _canonical(edge)
        pair = self._series.get(key)
        if pair is None:
            return 0
        return pair[0 if forward else 1].count_until(t)

    def count_leaving(self, edge: DirectedEdge, t: float) -> float:
        """``C(γ⁻(e), t)``: crossings against the direction of ``edge``."""
        return self.count_entering((edge[1], edge[0]), t)

    def net_until(self, edge: DirectedEdge, t: float) -> float:
        """``C(γ⁺(e), t) - C(γ⁻(e), t)`` — the integrand of Theorem 4.2."""
        return self.count_entering(edge, t) - self.count_leaving(edge, t)

    def net_between(self, edge: DirectedEdge, t1: float, t2: float) -> float:
        """Range form of the integrand (Theorem 4.3), events in (t1, t2]."""
        if t2 < t1:
            raise QueryError(f"inverted time interval [{t1}, {t2}]")
        return self.net_until(edge, t2) - self.net_until(edge, t1)

    # ------------------------------------------------------------------
    # Region integration
    # ------------------------------------------------------------------
    def integrate_until(
        self, edges: Iterable[DirectedEdge], t: float
    ) -> float:
        """Theorem 4.2: objects inside the region at time ``t``.

        ``edges`` is the region's boundary chain, each directed edge
        oriented inward (head side inside the region).
        """
        return sum(self.net_until(edge, t) for edge in edges)

    def integrate_between(
        self, edges: Iterable[DirectedEdge], t1: float, t2: float
    ) -> float:
        """Theorem 4.3: net change of objects inside during ``(t1, t2]``.

        Negative values mean more objects left than entered.
        """
        return sum(self.net_between(edge, t1, t2) for edge in edges)

    # ------------------------------------------------------------------
    # Introspection / storage accounting (Fig. 11e)
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[DirectedEdge]:
        """Canonical undirected edges that have recorded crossings."""
        return iter(self._series)

    def timestamps(self, edge: DirectedEdge) -> Tuple[List[float], List[float]]:
        """``(γ⁺, γ⁻)`` timestamp lists for the given directed edge."""
        key, forward = _canonical(edge)
        pair = self._series.get(key)
        if pair is None:
            return ([], [])
        plus, minus = pair if forward else (pair[1], pair[0])
        return (plus.timestamps(), minus.timestamps())

    def event_count(self, edge: DirectedEdge) -> int:
        """Total stored timestamps (both directions) for an edge."""
        key, _ = _canonical(edge)
        pair = self._series.get(key)
        if pair is None:
            return 0
        return len(pair[0]) + len(pair[1])

    @property
    def total_events(self) -> int:
        generation, cached = self._total_events_cache
        if generation != self._generation:
            cached = sum(
                len(p[0]) + len(p[1]) for p in self._series.values()
            )
            self._total_events_cache = (self._generation, cached)
        return cached

    @property
    def edge_count(self) -> int:
        return len(self._series)

    def storage_profile(self) -> List[int]:
        """Per-edge stored timestamp counts (the Fig. 11e CDF input)."""
        generation, cached = self._storage_profile_cache
        if generation != self._generation:
            cached = tuple(
                sorted(
                    len(pair[0]) + len(pair[1])
                    for pair in self._series.values()
                )
            )
            self._storage_profile_cache = (self._generation, cached)
        return list(cached)

    def storage_report(self) -> dict:
        """Bytes-per-component accounting in the unified store schema
        (nominal 8 bytes per stored timestamp, the paper's storage
        model — this store keeps Python lists, not packed columns)."""
        events = self.total_events
        return {
            "store": type(self).__name__,
            "events": int(events),
            "total_bytes": int(events) * 8,
            "derived_bytes": 0,
            "components": {"timestamps": int(events) * 8},
        }

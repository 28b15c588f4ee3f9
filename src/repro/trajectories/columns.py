"""Columnar crossing-event storage (the vectorised ingestion substrate).

:class:`EventColumns` materialises a crossing-event stream *once* as
three parallel numpy arrays — ``edge_id`` (``int32``, via the domain's
interned canonical-edge table), ``direction`` (``int8``, 0 when the
event follows the canonical edge orientation, 1 against it) and ``t``
(``float64``) — kept sorted by time.

Every network configuration then ingests by *vectorised filtering*
(a boolean wall mask indexed by ``edge_id``) instead of re-walking the
stream event-by-event through Python, which is what makes repeated
``build_form`` calls across a benchmark sweep cheap.  Learned-index
substrates (PGM-style piecewise models) get the contiguous sorted-array
layout they assume for free.

:meth:`EventColumns.from_events` is the one place where crossing events
become ids: the framework's log, the batch forms and the streaming
store all start from its result (:func:`columnarize` passes columns
through untouched).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, List, Sequence, Union

import numpy as np

from ..errors import WorkloadError
from .events import CrossingEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mobility import MobilityDomain
    from ..planar import EdgeInterner

_DIRECTED = attrgetter("tail", "head")
_TIME = attrgetter("t")


@dataclass(frozen=True)
class EventColumns:
    """A time-sorted crossing-event stream in columnar (SoA) layout."""

    #: Shared canonical-edge ↔ id table (normally the domain's).
    interner: "EdgeInterner"
    #: Dense interned edge id per event.
    edge_id: np.ndarray
    #: 0 = event follows the canonical edge orientation, 1 = against it.
    direction: np.ndarray
    #: Event timestamps, non-decreasing.
    t: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.edge_id) == len(self.direction) == len(self.t)):
            raise WorkloadError("event columns must have equal lengths")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls,
        domain: "MobilityDomain",
        events: Iterable[CrossingEvent],
    ) -> "EventColumns":
        """Columnarise an event stream against a domain's edge table.

        The only per-event interning site: each event costs one hit in
        the interner's directed-edge memo (``EdgeInterner.codes``; a
        first sight interns) and one attribute read for its time, both
        mapped straight into ``np.fromiter`` — no Python-level loop and
        no intermediate per-event tuples or lists.  Every later wall
        filter and form build over the result is pure numpy.  Events
        may arrive in any order; the result is stably time-sorted.
        """
        interner = domain.edge_interner
        if not isinstance(events, (list, tuple)):
            events = list(events)
        n = len(events)
        code = np.fromiter(
            map(interner.codes.__getitem__, map(_DIRECTED, events)),
            dtype=np.int32, count=n,
        )
        t = np.fromiter(map(_TIME, events), dtype=np.float64, count=n)
        columns = cls(
            interner=interner,
            edge_id=code >> 1,
            direction=(code & 1).astype(np.int8),
            t=t,
        )
        return columns.time_sorted()

    @classmethod
    def concat(cls, parts: Sequence["EventColumns"]) -> "EventColumns":
        """The events of every part (at least one; all over one
        interner) copied into one time-sorted stream.  Simultaneous
        events keep their order inside a part, earlier parts first —
        the order a single :meth:`from_events` over the concatenated
        lists gives."""
        return cls(
            interner=parts[0].interner,
            edge_id=np.concatenate([p.edge_id for p in parts]),
            direction=np.concatenate([p.direction for p in parts]),
            t=np.concatenate([p.t for p in parts]),
        ).time_sorted()

    def time_sorted(self) -> "EventColumns":
        """Self if already time-sorted, else a stably sorted copy."""
        t = self.t
        if not (t[1:] < t[:-1]).any():
            return self
        order = np.argsort(t, kind="stable")
        return EventColumns(
            interner=self.interner,
            edge_id=self.edge_id[order],
            direction=self.direction[order],
            t=t[order],
        )

    def quantized(self, tick_bits: int) -> "EventColumns":
        """Timestamps snapped to the ``2**tick_bits`` ticks/second grid.

        The succinct tier's ingest-boundary quantization: rounding is
        monotone, so the time-sorted invariant survives, and every
        snapped value is exactly float64-representable — stores built
        from the result (compressed or not) hold identical multisets.
        Self is returned when nothing changes.
        """
        from ..forms.succinct import quantize_times

        t = quantize_times(self.t, tick_bits)
        if np.array_equal(t, self.t):
            return self
        return EventColumns(
            interner=self.interner,
            edge_id=self.edge_id,
            direction=self.direction,
            t=t,
        )

    # ------------------------------------------------------------------
    # Vectorised filtering
    # ------------------------------------------------------------------
    def select(self, indices: np.ndarray) -> "EventColumns":
        """Fancy-indexed subset (preserves the shared interner)."""
        return EventColumns(
            interner=self.interner,
            edge_id=self.edge_id[indices],
            direction=self.direction[indices],
            t=self.t[indices],
        )

    def filter_edges(self, edge_lookup: np.ndarray) -> "EventColumns":
        """Events whose edge id is flagged in a boolean lookup table.

        ``edge_lookup`` is indexed by edge id; ids beyond its length
        (edges interned after the table was built) are treated as not
        selected.
        """
        ids = self.edge_id
        in_table = ids < len(edge_lookup)
        mask = np.zeros(len(ids), dtype=bool)
        mask[in_table] = edge_lookup[ids[in_table]]
        return self.select(np.flatnonzero(mask))

    # ------------------------------------------------------------------
    # Introspection / interop
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[CrossingEvent]:
        """Iterate as :class:`CrossingEvent` (slow path; interop only)."""
        edge = self.interner.edge
        for eid, d, t in zip(self.edge_id, self.direction, self.t):
            u, v = edge(int(eid))
            if d:
                u, v = v, u
            yield CrossingEvent(u, v, float(t))

    def to_events(self) -> List[CrossingEvent]:
        """Materialise back into a row-wise event list."""
        return list(self)


def columnarize(
    domain: "MobilityDomain",
    events: Union[EventColumns, Iterable[CrossingEvent]],
) -> EventColumns:
    """Columns as they are, anything else through
    :meth:`EventColumns.from_events` — what every ingest entry point
    (``InNetworkFramework.ingest_events``,
    ``StreamingEventStore.append_events``) accepts."""
    if isinstance(events, EventColumns):
        return events
    return EventColumns.from_events(domain, events)

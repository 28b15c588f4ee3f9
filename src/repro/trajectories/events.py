"""Crossing-event extraction and ground-truth occupancy.

The sensing system never sees trips — it sees anonymous *crossing
events* ``(u, v, t)``: "something crossed the sensing edge of road
``{u, v}`` toward ``v`` at time ``t``".  This module converts trips to
their event streams (including the EXT entry/exit walks) and, for
evaluation only, computes exact occupancy ground truth from the trips
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple

from ..errors import QueryError
from ..forms import TrackingForm
from ..mobility import EXT, MobilityDomain
from ..planar import NodeId
from .generator import Trip


@dataclass(frozen=True, slots=True)
class CrossingEvent:
    """An anonymous directed crossing: toward ``head`` at time ``t``.

    Slotted: no per-event ``__dict__``, so an event list is smaller
    and the attribute reads of
    :meth:`~repro.trajectories.EventColumns.from_events` are faster.
    """

    tail: NodeId
    head: NodeId
    t: float


def trip_events(domain: MobilityDomain, trip: Trip) -> List[CrossingEvent]:
    """All crossing events a trip generates, in time order.

    The entry walk (EXT -> rim -> ... -> origin) is stamped at the
    departure time and the exit walk at the end time, realising the
    infinity-node convention: every object enters and leaves the sensed
    world through EXT, so regions never miss an appearance.
    """
    events: List[CrossingEvent] = []
    entry = domain.entry_path(trip.origin)
    for a, b in zip(entry, entry[1:]):
        events.append(CrossingEvent(a, b, trip.start_time))

    for (a, ta), (b, tb) in zip(trip.visits, trip.visits[1:]):
        if a == b:
            continue  # dwell, no crossing
        events.append(CrossingEvent(a, b, tb))

    exit_walk = domain.exit_path(trip.destination)
    for a, b in zip(exit_walk, exit_walk[1:]):
        events.append(CrossingEvent(a, b, trip.end_time))
    return events


def all_events(
    domain: MobilityDomain, trips: Sequence[Trip]
) -> List[CrossingEvent]:
    """Event stream of a whole trip collection, sorted by time.

    Sorting is stable, so each trip's internal event order (which
    matters for same-timestamp entry/exit walks) is preserved.
    """
    events: List[CrossingEvent] = []
    for trip in trips:
        events.extend(trip_events(domain, trip))
    events.sort(key=lambda e: e.t)
    return events


def ingest(events: Iterable[CrossingEvent], form: TrackingForm) -> int:
    """Record every event into a tracking form; returns events ingested."""
    count = 0
    for event in events:
        form.record(event.tail, event.head, event.t)
        count += 1
    return count


# ----------------------------------------------------------------------
# Ground truth (evaluation only; uses object identity)
# ----------------------------------------------------------------------
def occupancy_count(
    trips: Sequence[Trip], region: Set[NodeId], t: float
) -> int:
    """Exact number of objects inside the junction region at time ``t``."""
    if EXT in region:
        raise QueryError("regions cannot include EXT")
    return sum(1 for trip in trips if trip.position_at(t) in region)


def net_change(
    trips: Sequence[Trip], region: Set[NodeId], t1: float, t2: float
) -> int:
    """Exact net occupancy change over ``(t1, t2]`` (Theorem 4.3 truth)."""
    if t2 < t1:
        raise QueryError(f"inverted interval [{t1}, {t2}]")
    return occupancy_count(trips, region, t2) - occupancy_count(
        trips, region, t1
    )


def distinct_visitors(
    trips: Sequence[Trip], region: Set[NodeId], t1: float, t2: float
) -> int:
    """Distinct objects that were inside the region at any point of
    ``[t1, t2]`` — the privacy-sensitive quantity the aggregate queries
    approximate without identifiers (used by tests and examples)."""
    if EXT in region:
        raise QueryError("regions cannot include EXT")
    count = 0
    for trip in trips:
        # Pre-filter uses a strict ``<`` on the left endpoint: a trip
        # with ``end_time == t1`` held its final junction up *to* t1
        # and must still be considered (see below), matching the
        # right-continuous ``(t1, t2]`` convention of
        # ``TrackingForm.count_between``.
        if trip.end_time < t1 or trip.start_time > t2:
            continue
        times = sorted({t1, t2, *(t for _, t in trip.visits if t1 <= t <= t2)})
        if any(trip.position_at(t) in region for t in times):
            count += 1
        elif trip.end_time == t1 and trip.visits:
            # ``position_at`` is right-continuous (EXT from end_time
            # on), which blinds the sample at exactly t1 to a trip that
            # occupied its final junction until that instant; it was
            # inside the region at t1, so it is a visitor.
            if trip.visits[-1][0] in region:
                count += 1
    return count

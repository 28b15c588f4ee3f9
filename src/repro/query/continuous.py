"""Continuous (standing) range count queries.

The paper's motivating application — cell-tower load balancing, Fig. 1
— monitors region counts *continuously* as updates stream in.  This
module provides that mode: a :class:`ContinuousCountMonitor` registers
standing regions once, resolves each to a boundary chain of the
executing network, and then folds the crossing-event stream
incrementally, maintaining every region's live count in O(boundary
lookup) per event instead of re-running queries.

This is a direct consequence of the differential-form design: the
count's time derivative is exactly the signed crossing rate through the
region boundary, so the monitor just adds +/-1 per relevant event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..errors import QueryError
from ..geometry import BBox
from ..planar import canonical_edge
from ..sampling import SensorNetwork
from ..trajectories import CrossingEvent

DirectedEdge = Tuple[Hashable, Hashable]


@dataclass
class RegionState:
    """Live state of one monitored region."""

    name: str
    regions: Tuple[int, ...]
    count: float = 0.0
    entries: int = 0
    exits: int = 0
    last_event_time: Optional[float] = None
    #: History of (time, count) checkpoints (kept when enabled).
    history: List[Tuple[float, float]] = field(default_factory=list)
    #: Inward-oriented boundary chain this region resolved to (used by
    #: :meth:`ContinuousCountMonitor.reevaluate` for exact recovery).
    boundary: Tuple[DirectedEdge, ...] = ()


class ContinuousCountMonitor:
    """Streaming maintenance of standing range count queries.

    Regions are registered as rectangles and resolved through the
    network's lower-bound approximation (the only mode that never
    overstates a standing count).  Events are folded with
    :meth:`observe`; the current count of every region is available at
    any time without touching stored timestamps.
    """

    def __init__(
        self, network: SensorNetwork, keep_history: bool = False
    ) -> None:
        self.network = network
        self.keep_history = keep_history
        self._states: Dict[str, RegionState] = {}
        #: canonical wall edge -> list of (state, inward head junction set)
        self._subscriptions: Dict[
            Tuple[Hashable, Hashable], List[Tuple[RegionState, Set]]
        ] = {}
        #: (store generation, t) -> counts of the last reevaluation.
        self._resync_memo: Optional[Tuple[int, float, Dict[str, float]]] = (
            None
        )

    # ------------------------------------------------------------------
    def add_region(self, name: str, box: BBox) -> RegionState:
        """Register a standing region; returns its live state handle."""
        if name in self._states:
            raise QueryError(f"region {name!r} already registered")
        junctions = self.network.domain.junctions_in_bbox(box)
        regions = self.network.lower_regions(junctions)
        if not regions:
            raise QueryError(
                f"region {name!r} misses: no sensing region fits inside"
            )
        boundary = tuple(self.network.region_boundary(regions))
        state = RegionState(
            name=name, regions=tuple(regions), boundary=boundary
        )
        inward_heads: Dict[Tuple, Set] = {}
        for tail, head in boundary:
            wall = canonical_edge(tail, head)
            inward_heads.setdefault(wall, set()).add(head)
        for wall, heads in inward_heads.items():
            self._subscriptions.setdefault(wall, []).append((state, heads))
        self._states[name] = state
        self._resync_memo = None
        return state

    def remove_region(self, name: str) -> None:
        """Unregister a standing region."""
        state = self._states.pop(name, None)
        if state is None:
            return
        for wall, subscribers in list(self._subscriptions.items()):
            remaining = [(s, h) for s, h in subscribers if s is not state]
            if remaining:
                self._subscriptions[wall] = remaining
            else:
                del self._subscriptions[wall]
        self._resync_memo = None

    # ------------------------------------------------------------------
    def observe(self, event: CrossingEvent) -> None:
        """Fold one crossing event into every subscribed region.

        The count fold itself is commutative (+1 entry / -1 exit), so
        arrival order does not affect live counts.  The ``(time,
        count)`` *history* is not: a checkpoint stream only means
        anything if times ascend, so with ``keep_history=True`` an
        out-of-order event raises a structured
        :class:`~repro.errors.QueryError` before any state mutates —
        feed time-sorted streams (or re-sort the window) when history
        is on.  Duplicate deliveries are undetectable on anonymous
        events and double-count; recover with :meth:`reevaluate`
        against the backing store.
        """
        wall = canonical_edge(event.tail, event.head)
        subscribers = self._subscriptions.get(wall)
        if not subscribers:
            return
        if self.keep_history:
            for state, _ in subscribers:
                last = state.last_event_time
                if last is not None and event.t < last:
                    raise QueryError(
                        f"out-of-order event at t={event.t} behind "
                        f"region {state.name!r} checkpoint t={last}; "
                        "history checkpoints need a time-sorted stream"
                    )
        for state, inward_heads in subscribers:
            if event.head in inward_heads:
                state.count += 1
                state.entries += 1
            else:
                state.count -= 1
                state.exits += 1
            if state.last_event_time is None:
                state.last_event_time = event.t
            else:
                state.last_event_time = max(state.last_event_time, event.t)
            if self.keep_history:
                state.history.append((event.t, state.count))

    def observe_stream(self, events: Iterable[CrossingEvent]) -> int:
        """Fold a whole event stream, in the order given; returns
        events processed.

        A monitor attached to a streaming store
        (:meth:`~repro.stream.StreamingEventStore.attach_monitor`) is
        fed each arrival window already time-sorted, so with
        ``keep_history=True`` the ordering contract of :meth:`observe`
        binds *across* windows only: disorder inside a window never
        raises, a window reaching back before the last checkpoint
        does.
        """
        processed = 0
        for event in events:
            self.observe(event)
            processed += 1
        return processed

    # ------------------------------------------------------------------
    def reevaluate(self, store, t: float) -> Dict[str, float]:
        """Recover every region's exact count at time ``t`` from a
        count store, repairing any fold drift (duplicate deliveries,
        replayed windows) in place.

        Each region's stored inward boundary chain is integrated
        through ``store.integrate_until`` — Theorem 4.2, the same
        evaluation a fresh static query would run — and
        ``state.count`` is overwritten with the exact value.
        ``entries``/``exits`` stay as observed-fold telemetry.  When
        the store exposes a ``generation`` (the streaming store does),
        the answer is memoised on ``(generation, t)``, so repeated
        resyncs between appends are free.  Returns the exact counts by
        region name.
        """
        generation = getattr(store, "generation", None)
        memo = self._resync_memo
        if (
            generation is not None
            and memo is not None
            and memo[0] == generation
            and memo[1] == t
        ):
            for name, value in memo[2].items():
                self._states[name].count = value
            return dict(memo[2])
        counts: Dict[str, float] = {}
        for name, state in self._states.items():
            exact = float(store.integrate_until(state.boundary, t))
            state.count = exact
            counts[name] = exact
        if generation is not None:
            self._resync_memo = (generation, t, dict(counts))
        return counts

    # ------------------------------------------------------------------
    def count(self, name: str) -> float:
        """Current count of a standing region."""
        return self.state(name).count

    def state(self, name: str) -> RegionState:
        try:
            return self._states[name]
        except KeyError:
            raise QueryError(f"unknown region {name!r}") from None

    def counts(self) -> Dict[str, float]:
        """All live counts."""
        return {name: state.count for name, state in self._states.items()}

    @property
    def region_names(self) -> List[str]:
        return list(self._states)

    @property
    def monitored_walls(self) -> int:
        """Distinct wall edges with at least one subscription."""
        return len(self._subscriptions)

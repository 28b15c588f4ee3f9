"""The paper's composite baseline (§5.1.2): Euler histograms on the
faces of the unsampled sensing graph plus uniform face sampling.

"The baseline uses Euler-histograms [15, 19] to count the number of
objects within each face of the graph G. We assume all counts are
aggregated and stored in the nodes before querying. A random index
sampling algorithm [14, 29] then uniformly samples faces in the graph."

Faces of ``G`` are junction cells in the dual model, so the baseline
keeps a per-sampled-junction occupancy history, built from the same
anonymous crossing events the in-network framework sees (entries and
exits of the face), and answers a query by summing the sampled faces
inside the region and Horvitz-Thompson scaling by the local sampling
rate.  A query with no sampled face inside its region is a miss."""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.errors import QueryError, SelectionError
from repro.mobility import MobilityDomain
from repro.planar import NodeId
from repro.query import STATIC, QueryResult, RangeQuery
from repro.trajectories import CrossingEvent


class _FaceHistory:
    """Entry/exit timestamp lists for one sampled face (junction)."""

    __slots__ = ("ins", "outs")

    def __init__(self) -> None:
        self.ins: List[float] = []
        self.outs: List[float] = []

    def occupancy(self, t: float) -> int:
        return bisect.bisect_right(self.ins, t) - bisect.bisect_right(
            self.outs, t
        )

    def sort(self) -> None:
        self.ins.sort()
        self.outs.sort()

    @property
    def event_count(self) -> int:
        return len(self.ins) + len(self.outs)


@dataclass
class EulerHistogramBaseline:
    """Uniform face sampling + per-face occupancy histograms.

    ``m`` sampled faces make its budget comparable to ``m``
    communication sensors of the in-network framework.
    """

    domain: MobilityDomain
    m: int
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )
    name: str = "euler-baseline"
    #: Temporal histogram resolution: per-face occupancy is aggregated
    #: into this many equal-width bins over the observed time span
    #: (None keeps exact event timestamps; the paper's baseline is a
    #: histogram, so binning is the default).
    time_bins: Optional[int] = 32

    def __post_init__(self) -> None:
        total = self.domain.junction_count
        if not 1 <= self.m <= total:
            raise SelectionError(
                f"baseline budget m={self.m} out of range 1..{total}"
            )
        picks = self.rng.choice(total, size=self.m, replace=False)
        self.sampled: Set[NodeId] = {
            self.domain.junctions[i] for i in picks
        }
        self._histories: Dict[NodeId, _FaceHistory] = {
            junction: _FaceHistory() for junction in self.sampled
        }
        self._ingested = False

    # ------------------------------------------------------------------
    def ingest(self, events: Iterable[CrossingEvent]) -> int:
        """Aggregate crossing events into per-face occupancy histories."""
        count = 0
        histories = self._histories
        t_min = float("inf")
        t_max = float("-inf")
        for event in events:
            t_min = min(t_min, event.t)
            t_max = max(t_max, event.t)
            history = histories.get(event.head)
            if history is not None:
                history.ins.append(event.t)
                count += 1
            history = histories.get(event.tail)
            if history is not None:
                history.outs.append(event.t)
                count += 1
        for history in histories.values():
            history.sort()
        if self.time_bins is not None and count and t_max > t_min:
            self._bin_edges = np.linspace(t_min, t_max, self.time_bins + 1)
            self._binned = {
                junction: np.array(
                    [history.occupancy(edge) for edge in self._bin_edges]
                )
                for junction, history in histories.items()
            }
        else:
            self._bin_edges = None
            self._binned = None
        self._ingested = True
        return count

    def _occupancy(self, junction: NodeId, t: float) -> float:
        """Occupancy of a sampled face at time ``t`` (binned if enabled)."""
        if self._binned is not None:
            edges = self._bin_edges
            index = int(np.searchsorted(edges, t, side="right")) - 1
            index = min(max(index, 0), len(edges) - 1)
            return float(self._binned[junction][index])
        return float(self._histories[junction].occupancy(t))

    # ------------------------------------------------------------------
    def execute(self, query: RangeQuery) -> QueryResult:
        """Answer a query by Horvitz-Thompson scaling of sampled faces.

        The lower/upper bound distinction does not apply (the baseline
        is an unbiased estimator, not a bound); ``query.bound`` is
        ignored, as in the paper's comparisons.
        """
        if not self._ingested:
            raise QueryError("baseline queried before ingest()")
        start = time.perf_counter()
        region = self.domain.junctions_in_bbox(query.box)
        inside = [j for j in self.sampled if j in region]
        if not region or not inside:
            return QueryResult(
                query=query,
                value=0.0,
                missed=True,
                elapsed=time.perf_counter() - start,
            )
        scale = len(region) / len(inside)
        if query.kind == STATIC:
            raw = sum(self._occupancy(j, query.t2) for j in inside)
        else:
            raw = sum(
                self._occupancy(j, query.t2) - self._occupancy(j, query.t1)
                for j in inside
            )
        elapsed = time.perf_counter() - start
        return QueryResult(
            query=query,
            value=raw * scale,
            missed=False,
            regions=(),
            edges_accessed=0,
            nodes_accessed=len(inside),
            hops=len(inside),
            elapsed=elapsed,
        )

    def execute_many(self, queries: Sequence[RangeQuery]) -> List[QueryResult]:
        return [self.execute(query) for query in queries]

    # ------------------------------------------------------------------
    @property
    def size_fraction(self) -> float:
        return self.m / max(self.domain.junction_count, 1)

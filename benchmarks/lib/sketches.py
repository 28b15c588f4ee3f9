"""Sketch-based distinct-count baseline (the paper's reference [36]).

Tao et al. (ICDE 2004) answer spatio-temporal *distinct* counts with
Flajolet-Martin sketches: each spatial cell keeps, per time bin, a
small bit sketch of the object identifiers seen, and a query merges
(ORs) sketches over the cells and bins it covers — duplicates across
cells/bins collapse for free.

This baseline is the identity-dependent counterpoint to the paper's
framework: it answers a query the differential forms cannot (distinct
objects *ever present* during a window) but requires hashing persistent
object identifiers — exactly the privacy cost the paper avoids.  It is
included for the related-work comparison and for the
``distinct_visitors`` evaluation in tests and examples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, QueryError
from repro.geometry import BBox
from repro.mobility import EXT, MobilityDomain
from repro.planar import NodeId
from repro.trajectories import Trip

#: Correction factor of the Flajolet-Martin estimator.
FM_PHI = 0.77351


def _hash64(value: str, salt: int) -> int:
    digest = hashlib.blake2b(
        value.encode(), digest_size=8, salt=salt.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


def _rho(x: int, bits: int) -> int:
    """Position of the least-significant set bit (capped)."""
    if x == 0:
        return bits - 1
    return min((x & -x).bit_length() - 1, bits - 1)


@dataclass
class FMSketch:
    """A Flajolet-Martin distinct-count sketch (m independent planes)."""

    planes: int = 16
    bits: int = 32
    _bitmaps: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.planes < 1:
            raise ConfigurationError("planes must be >= 1")
        if not 8 <= self.bits <= 64:
            raise ConfigurationError("bits must be in [8, 64]")
        if self._bitmaps is None:
            self._bitmaps = np.zeros(self.planes, dtype=np.uint64)

    def add(self, identity: Hashable) -> None:
        """Insert one identity (idempotent for duplicates)."""
        text = repr(identity)
        for plane in range(self.planes):
            position = _rho(_hash64(text, plane), self.bits)
            self._bitmaps[plane] |= np.uint64(1 << position)

    def merge(self, other: "FMSketch") -> "FMSketch":
        """Union of two sketches (duplicates collapse)."""
        if other.planes != self.planes or other.bits != self.bits:
            raise ConfigurationError("cannot merge differently-shaped sketches")
        merged = FMSketch(planes=self.planes, bits=self.bits)
        merged._bitmaps = self._bitmaps | other._bitmaps
        return merged

    def estimate(self) -> float:
        """FM cardinality estimate: 2^mean(R) / phi."""
        ranks = []
        for bitmap in self._bitmaps:
            rank = 0
            value = int(bitmap)
            while value & 1:
                rank += 1
                value >>= 1
            ranks.append(rank)
        return (2.0 ** float(np.mean(ranks))) / FM_PHI

    @property
    def storage_bytes(self) -> int:
        return self.planes * 8

    def __or__(self, other: "FMSketch") -> "FMSketch":
        return self.merge(other)


class SketchBaseline:
    """Per-junction, per-time-bin FM sketches of object identities.

    ``distinct_count(box, t1, t2)`` merges the sketches of every
    junction face in the region across the bins overlapping the window,
    estimating the number of distinct objects ever present — the [36]
    query type.  Identity-dependent by construction.
    """

    def __init__(
        self,
        domain: MobilityDomain,
        horizon: float,
        time_bins: int = 32,
        planes: int = 16,
    ) -> None:
        if time_bins < 1:
            raise ConfigurationError("time_bins must be >= 1")
        if horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        self.domain = domain
        self.horizon = float(horizon)
        self.time_bins = time_bins
        self.planes = planes
        self._sketches: Dict[Tuple[NodeId, int], FMSketch] = {}
        self._ingested = False

    def _bin_of(self, t: float) -> int:
        index = int(t / self.horizon * self.time_bins)
        return min(max(index, 0), self.time_bins - 1)

    def ingest_trips(self, trips: Sequence[Trip]) -> int:
        """Insert every (junction, bin) presence of every trip."""
        insertions = 0
        for trip in trips:
            visits = list(trip.visits)
            for (junction, t_in), (_, t_out) in zip(visits, visits[1:] + [(None, trip.end_time)]):
                if junction == EXT:
                    continue
                first = self._bin_of(t_in)
                last = self._bin_of(max(t_out - 1e-9, t_in))
                for time_bin in range(first, last + 1):
                    key = (junction, time_bin)
                    sketch = self._sketches.get(key)
                    if sketch is None:
                        sketch = FMSketch(planes=self.planes)
                        self._sketches[key] = sketch
                    sketch.add(trip.object_id)
                    insertions += 1
        self._ingested = True
        return insertions

    def distinct_count(self, box: BBox, t1: float, t2: float) -> float:
        """Estimated distinct objects inside the box during [t1, t2]."""
        if not self._ingested:
            raise QueryError("sketch baseline queried before ingest")
        if t2 < t1:
            raise QueryError(f"inverted interval [{t1}, {t2}]")
        junctions = self.domain.junctions_in_bbox(box)
        if not junctions:
            return 0.0
        bins = range(self._bin_of(t1), self._bin_of(t2) + 1)
        merged: Optional[FMSketch] = None
        for junction in junctions:
            for time_bin in bins:
                sketch = self._sketches.get((junction, time_bin))
                if sketch is None:
                    continue
                merged = sketch if merged is None else merged | sketch
        return merged.estimate() if merged is not None else 0.0

    @property
    def storage_bytes(self) -> int:
        return sum(s.storage_bytes for s in self._sketches.values())

    @property
    def sketch_count(self) -> int:
        return len(self._sketches)

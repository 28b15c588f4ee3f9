"""The query planners: rectangle → regions → boundary chain → sensors.

One planner surface, two implementations.  The engine holds exactly
one planner and never asks which kind it is; both expose

- ``junction_ids(box)`` — the junction set ``R`` of the rectangle;
- ``region_ids(junctions, bound)`` — the sorted region tuple of the
  R2 (lower) / R1 (upper) approximation, ``None`` on a miss;
- ``boundary(regions)`` — the inward boundary chain (``len()`` = |∂R|);
- ``chain_sensors(chain)`` / ``flood_sensors(regions)`` — the sensors a
  perimeter / flood dispatch contacts;
- ``integrate(store, chain, query, static_eval)`` — Theorems 4.2/4.3;
- ``decode_edges(chain)`` — the chain as directed ``(u, v)`` edges;
- ``describe()`` and ``name`` for EXPLAIN.

:class:`PythonQueryPlanner` is the reference: per-query sets and dicts
straight off the :class:`~repro.sampling.SensorNetwork` (a fresh
junction set per rectangle, a subset test per candidate region,
wall-by-wall boundary loops).  Tests and the end-to-end benchmark run
it (``QueryEngine(..., planner="python")``) as the independent oracle.

:class:`CompiledQueryPlanner` re-expresses the same pipeline over the
int32/CSR indexes a network compiles on first use
(:meth:`~repro.sampling.SensorNetwork.compiled_index`):

1. rectangle → junction *index array* via the domain's
   sorted-coordinate bbox index (no set materialisation);
2. lower-bound region approximation by membership counting — a region
   is fully enclosed iff its ``np.bincount`` of in-bbox junctions
   equals its size; the upper bound is one ``np.unique`` over the
   touched regions;
3. boundary-chain cancellation by wall-id occurrence counting over the
   selected regions' concatenated CSR wall slices — interior walls
   appear exactly twice (once per adjacent selected region) and drop
   out, mirroring the chain cancellation of the boundary operator;
4. sensor accounting by one gather + ``np.bincount`` over the dense
   wall→owner table (or the junction→block table in flood mode) —
   both lazily cached on the network's index, so constructing a
   planner is O(1);
5. integration through the count store's id-native fast path
   (:meth:`~repro.forms.CompiledTrackingForm.integrate_until_ids`)
   keyed on a wall-id digest, falling back to decoded directed edges
   for stores without one.

Every step is exactly result-equivalent between the two — same values,
misses, region ids, edge/sensor/hop accounting — which the randomized
cross-check suite in ``tests/test_query_planner.py`` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import QueryError
from ..sampling import SensorNetwork
from .result import LOWER, RangeQuery, TRANSIENT

DirectedEdge = Tuple[object, object]

_EMPTY_I32 = np.empty(0, dtype=np.int32)
_EMPTY_I8 = np.empty(0, dtype=np.int8)
_EMPTY_TAKE = np.empty(0, dtype=np.int64)


def _csr_take(offsets: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index array selecting ``offsets[r]:offsets[r+1]`` per row."""
    starts = offsets[rows]
    lens = offsets[rows + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return _EMPTY_TAKE
    shift = np.concatenate(([0], np.cumsum(lens)[:-1]))
    return np.repeat(starts - shift, lens) + np.arange(total)


def _csr_gather(
    offsets: np.ndarray, data: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Concatenated CSR slices ``data[offsets[r]:offsets[r+1]]`` per row."""
    return data[_csr_take(offsets, rows)]


@dataclass(frozen=True)
class BoundaryChain:
    """An id-native boundary chain: interned wall ids + orientation.

    ``wall_ids`` is ascending (a by-product of the ``np.unique``
    cancellation), ``signs`` is +1 where the inward traversal follows
    the canonical edge orientation and -1 against it.
    """

    wall_ids: np.ndarray
    signs: np.ndarray

    @property
    def size(self) -> int:
        return len(self.wall_ids)

    def __len__(self) -> int:
        return len(self.wall_ids)


def integrate_edges(store, edges, query: RangeQuery, static_eval: str):
    """Integrate a directed-edge chain through any count store.

    Uses the store's batched ``integrate_between`` / ``integrate_until``
    when it has them and sums per-edge nets otherwise (learned models).
    """
    if query.kind == TRANSIENT:
        batched = getattr(store, "integrate_between", None)
        if batched is not None:
            return batched(edges, query.t1, query.t2)
        return sum(store.net_between(e, query.t1, query.t2) for e in edges)
    until = getattr(store, "integrate_until", None)
    if until is None:
        def until(chain, t):
            return sum(store.net_until(edge, t) for edge in chain)
    if static_eval == "end":
        return until(edges, query.t2)
    if static_eval == "start":
        return until(edges, query.t1)
    return min(until(edges, query.t1), until(edges, query.t2))


class PythonQueryPlanner:
    """The reference resolution pipeline: sets and dicts, no indexes."""

    name = "python"

    def __init__(self, network: SensorNetwork) -> None:
        self.network = network
        self.domain = network.domain

    def describe(self) -> Dict[str, int]:
        return {}

    def junction_ids(self, box) -> Set:
        return self.domain.junctions_in_bbox(box)

    def region_ids(self, junctions, bound: str) -> Optional[Tuple[int, ...]]:
        if bound == LOWER:
            resolved = self.network.lower_regions(junctions)
        else:
            resolved, covered = self.network.upper_regions(junctions)
            if not covered:
                return None
        return tuple(resolved) if resolved else None

    def boundary(self, regions: Tuple[int, ...]) -> List[DirectedEdge]:
        return self.network.region_boundary(regions)

    def chain_sensors(self, chain: List[DirectedEdge]) -> Set[int]:
        return self.network.sensors_for_boundary(chain)

    def flood_sensors(self, regions: Tuple[int, ...]) -> Set[int]:
        """Every block incident to any junction of the regions."""
        domain, dual = self.domain, self.domain.dual
        blocks: Set[int] = set()
        for region in regions:
            for junction in self.network.region_junctions(region):
                for neighbour in domain.graph.neighbors(junction):
                    blocks.update(
                        dual.faces_of_primal_edge(junction, neighbour)
                    )
        blocks.discard(dual.outer_node)
        return blocks

    def integrate(self, store, chain, query: RangeQuery, static_eval: str):
        return integrate_edges(store, chain, query, static_eval)

    def decode_edges(self, chain: List[DirectedEdge]) -> List[DirectedEdge]:
        return chain


class CompiledQueryPlanner:
    """Array-native resolution pipeline over a network's CSR indexes."""

    name = "compiled"

    def __init__(self, network: SensorNetwork) -> None:
        self.network = network
        self.domain = network.domain
        self.index = network.compiled_index()
        #: Dense-id universe size for the bincount scatter tables.
        self._n_walls = len(self.index.wo_offsets) - 1
        #: Decoded directed-edge lists per chain digest (for stores
        #: without an id-native integration path, and for the rare
        #: degraded-dispatch bookkeeping).
        self._decoded: Dict[bytes, List[DirectedEdge]] = {}

    def describe(self) -> Dict[str, int]:
        """Static index sizes (the EXPLAIN header's ``index:`` line)."""
        index = self.index
        return {
            "regions": int(index.n_regions),
            "walls": int(self._n_walls),
            "sensors": int(len(self.network.sensors)),
            "junctions": int(len(index.region_of_junction)),
        }

    # ------------------------------------------------------------------
    # Resolution pipeline
    # ------------------------------------------------------------------
    def junction_ids(self, box) -> np.ndarray:
        """Junction indices inside the rectangle (ascending int32)."""
        return self.domain.junction_ids_in_bbox(box)

    def region_ids(
        self, junction_ids: np.ndarray, bound: str
    ) -> Optional[Tuple[int, ...]]:
        """Region approximation as a sorted tuple; ``None`` on a miss.

        Mirrors :meth:`SensorNetwork.lower_regions` /
        :meth:`~repro.sampling.SensorNetwork.upper_regions`: the lower
        bound keeps regions whose in-bbox membership count equals their
        size; the upper bound keeps every touched region and misses
        when the EXT region is touched (no bounded superset exists).
        """
        index = self.index
        touched = index.region_of_junction[junction_ids]
        counts = np.bincount(touched, minlength=index.n_regions)
        if bound == LOWER:
            enclosed = np.flatnonzero(
                (counts > 0) & (counts == index.region_size)
            )
            enclosed = enclosed[enclosed != index.ext_region]
            if len(enclosed) == 0:
                return None
            return tuple(enclosed.tolist())
        if counts[index.ext_region]:
            return None
        regions = np.flatnonzero(counts)
        if len(regions) == 0:
            return None
        return tuple(regions.tolist())

    def boundary(self, regions: Tuple[int, ...]) -> BoundaryChain:
        """Boundary chain of a union of regions, by occurrence counting.

        Each selected region contributes its inward wall slice; a wall
        shared by two selected regions occurs twice (with opposite
        signs) and cancels, exactly like the Python path's
        ``region_of[u] not in selected`` test.
        """
        index = self.index
        if index.ext_region in regions:
            raise QueryError("query regions cannot include the EXT region")
        if len(regions) == 1:
            # One region has no interior walls to cancel; its slice is
            # stored ascending, so it already is the canonical chain.
            lo = index.rw_offsets[regions[0]]
            hi = index.rw_offsets[regions[0] + 1]
            return BoundaryChain(
                index.rw_wall_ids[lo:hi], index.rw_signs[lo:hi]
            )
        rows = np.asarray(regions, dtype=np.int64)
        take = _csr_take(index.rw_offsets, rows)
        if len(take) == 0:
            return BoundaryChain(_EMPTY_I32, _EMPTY_I8)
        ids = index.rw_wall_ids[take]
        signs = index.rw_signs[take]
        # Signed scatter-sum over the wall universe: a wall appears at
        # most twice (once per adjacent region, opposite signs), so the
        # net weight is ±1 on the boundary and 0 on cancelled interior
        # walls.  No sort — unlike np.unique — and ids come out
        # ascending from flatnonzero.
        net = np.bincount(ids, weights=signs, minlength=self._n_walls)
        wall_ids = np.flatnonzero(net)
        return BoundaryChain(
            wall_ids.astype(np.int32),
            net[wall_ids].astype(np.int8),
        )

    def chain_sensors(self, chain: BoundaryChain) -> np.ndarray:
        """Unique owning sensors of a chain (ascending), one gather."""
        if chain.size == 0:
            return _EMPTY_I32
        owners = self.index.wall_owners_dense()[chain.wall_ids].ravel()
        # Shift by one so the -1 padding lands in slot 0, then drop it.
        return np.flatnonzero(np.bincount(owners + 1)[1:])

    def flood_sensors(self, regions: Tuple[int, ...]) -> np.ndarray:
        """Unique blocks incident to any junction of the regions."""
        index = self.index
        rows = np.asarray(regions, dtype=np.int64)
        junctions = _csr_gather(index.rj_offsets, index.rj_junctions, rows)
        jb_offsets, jb_blocks = index.junction_blocks(self.domain)
        blocks = _csr_gather(jb_offsets, jb_blocks, junctions)
        if len(blocks) == 0:
            return blocks
        seen = np.bincount(blocks)  # block-id universe is small
        return np.flatnonzero(seen)

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def integrate(
        self,
        store,
        chain: BoundaryChain,
        query: RangeQuery,
        static_eval: str,
    ) -> float:
        """Integrate the chain through the store's id-native path
        (``integrate_until_ids`` / ``integrate_between_ids`` /
        ``integrate_at_ids``, e.g.
        :class:`~repro.forms.CompiledTrackingForm`) — one touch of the
        chain per query; a store without one gets the decoded directed
        edges instead.
        """
        if not hasattr(store, "integrate_until_ids"):
            return integrate_edges(
                store, self.decode_edges(chain), query, static_eval
            )
        wall_ids, signs = chain.wall_ids, chain.signs
        if query.kind == TRANSIENT:
            return store.integrate_between_ids(
                wall_ids, signs, query.t1, query.t2
            )
        if static_eval == "end":
            return store.integrate_until_ids(wall_ids, signs, query.t2)
        if static_eval == "start":
            return store.integrate_until_ids(wall_ids, signs, query.t1)
        # "min": both endpoints from one touch of the chain.
        return int(
            min(store.integrate_at_ids(wall_ids, signs, (query.t1, query.t2)))
        )

    def decode_edges(self, chain: BoundaryChain) -> List[DirectedEdge]:
        """The chain as inward-directed ``(u, v)`` edges (cached)."""
        key = chain.wall_ids.tobytes() + chain.signs.tobytes()
        edges = self._decoded.get(key)
        if edges is None:
            edge_of = self.domain.edge_interner.edge
            edges = []
            for eid, sign in zip(
                chain.wall_ids.tolist(), chain.signs.tolist()
            ):
                u, v = edge_of(eid)
                edges.append((u, v) if sign > 0 else (v, u))
            self._decoded[key] = edges
        return edges

"""The query planners: rectangle → regions → boundary chain → sensors.

One planner surface, two implementations.  The engine holds exactly
one planner and never asks which kind it is; both expose

- ``junction_ids(box)`` — the junction set ``R`` of the rectangle
  (``len()`` = |R|);
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
(:meth:`~repro.sampling.SensorNetwork.compiled_index`), which also
holds the three tables a plan reads: every region's junction extent,
the region of every junction in the domain's bbox-index x order, and
the *sides* table (the two regions listing each wall, with the inward
sign of the first):

1. rectangle → junction set as its x-slab of the sorted-coordinate
   bbox index and the y-mask over that slab (:class:`JunctionSlab`:
   two ``searchsorted`` and one mask, no gather, no sort);
2. lower bound (R2): a region is enclosed exactly when its extent lies
   in the inclusive box — four vectorised comparisons, and the NaN
   extents of EXT and of empty regions never do; upper bound (R1): one
   ``bincount`` of the slab's region column, a miss when EXT is in it;
3. boundary chain: a wall is on the chain of a union of regions
   exactly when one of its two sides is selected, signed inward from
   that side — a member mask, two gathers through the sides table and
   one ``nonzero``, ids ascending with no sort;
4. sensor accounting by one gather of the dense wall→owner table into
   a per-sensor mask (or the junction→block table in flood mode) —
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
from itertools import chain as flatten
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import QueryError
from ..forms.rank import csr_take
from ..geometry import BBox
from ..sampling import SensorNetwork
from .result import LOWER, RangeQuery, TRANSIENT

DirectedEdge = Tuple[object, object]

_EMPTY_I32 = np.empty(0, dtype=np.int32)
_EMPTY_I8 = np.empty(0, dtype=np.int8)

#: Cells of the largest scratch table a batch plan step may allocate
#: (pair keys ``row * universe + id``, counted by one ``bincount``):
#: the rows of a step are cut into slices that stay under it, so a
#: thousand boxes on a city of 15k walls plan in 2 MB tables, not one
#: of 120 MB.  Measured, not tuned: 2**17 to 2**21 plan a 500-box
#: batch within 10 % of each other, the small end ahead (its tables
#: stay in cache) and 10 MB lighter in resident memory.
_SCRATCH_CELLS = 1 << 18


def _row_slices(rows: int, universe: int) -> List[Tuple[int, int]]:
    """``rows`` cut into consecutive ranges ``[start, stop)`` of as
    many rows as fit :data:`_SCRATCH_CELLS` at ``universe`` cells a
    row (one row at least)."""
    step = max(_SCRATCH_CELLS // max(universe, 1), 1)
    return [(at, min(at + step, rows)) for at in range(0, rows, step)]


def _csr_rows(
    offsets: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(take, lens)``: the index array selecting CSR rows ``rows``
    and the length of each."""
    starts = offsets[rows]
    lens = offsets[rows + 1] - starts
    return csr_take(starts, lens), lens


class JunctionSlab:
    """The junction set ``R`` of a box as the compiled planner holds
    it: the x-slab ``[lo, hi)`` of the domain's sorted-coordinate
    index and the mask of the slab entries whose y lies in the box too.
    ``len()`` is |R|."""

    __slots__ = ("box", "lo", "hi", "inside", "count")

    def __init__(self, box, lo: int, hi: int, inside: np.ndarray) -> None:
        self.box, self.lo, self.hi, self.inside = box, lo, hi, inside
        self.count = int(np.count_nonzero(inside))

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True, slots=True)
class BoundaryChain:
    """An id-native boundary chain: interned wall ids + orientation.

    ``wall_ids`` is ascending (the sides table is in wall order),
    ``signs`` is +1 where the inward traversal follows the canonical
    edge orientation and -1 against it.
    """

    wall_ids: np.ndarray
    signs: np.ndarray

    @property
    def size(self) -> int:
        return len(self.wall_ids)

    def __len__(self) -> int:
        return len(self.wall_ids)


@dataclass(frozen=True)
class ChainBatch:
    """The distinct boundary chains of a batch as one CSR: chain ``c``
    is ``wall_ids[offsets[c]:offsets[c + 1]]`` with the matching
    ``signs``, ascending as in :class:`BoundaryChain`."""

    offsets: np.ndarray
    wall_ids: np.ndarray
    signs: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, c: int) -> BoundaryChain:
        link = slice(self.offsets[c], self.offsets[c + 1])
        return BoundaryChain(self.wall_ids[link], self.signs[link])

    def __iter__(self) -> Iterator[BoundaryChain]:
        """Every chain's view at once: the offsets are read as one list,
        not as two numpy scalars a chain."""
        offsets, wall_ids, signs = self.offsets.tolist(), self.wall_ids, self.signs
        return iter([
            BoundaryChain(wall_ids[start:stop], signs[start:stop])
            for start, stop in zip(offsets, offsets[1:])
        ])


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
    return min(until(edges, t) for t in query.static_times(static_eval))


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

    # The batch surface, as the reference: a loop over distinct keys.
    def batch_junctions(self, boxes: Sequence) -> Tuple[List[Set], List[int]]:
        found = [self.junction_ids(BBox(*box)) for box in boxes]
        return found, [len(junctions) for junctions in found]

    def batch_regions(self, found, boxes, bounds) -> List[Optional[Tuple]]:
        return [self.region_ids(found[b], bd) for b, bd in zip(boxes, bounds)]

    def batch_chains(self, regions: Sequence[Tuple[int, ...]]) -> List:
        return [self.boundary(selected) for selected in regions]

    def batch_sensors(self, chains) -> List[int]:
        return [len(self.chain_sensors(chain)) for chain in chains]

    def join_chains(self, chains) -> List:
        return list(chains)


class CompiledQueryPlanner:
    """Array-native resolution pipeline over a network's CSR indexes."""

    name = "compiled"

    def __init__(self, network: SensorNetwork) -> None:
        self.network = network
        self.domain = network.domain
        self.index = network.compiled_index()
        self._bbox = self.domain.bbox_index()
        #: Dense-id universe size for the bincount scatter tables.
        self._n_walls = len(self.index.wo_offsets) - 1
        #: Slots of a per-sensor table indexed by a shifted owner.
        self._sensor_slots = int(self.index.wo_sensors.max(initial=-1)) + 2

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
    def junction_ids(self, box) -> JunctionSlab:
        """The junctions inside the rectangle, as its x-slab of the
        sorted-coordinate index and the y-mask over that slab."""
        xs, ys, _ = self._bbox
        lo = xs.searchsorted(box.min_x, "left")
        hi = xs.searchsorted(box.max_x, "right")
        y = ys[lo:hi]
        return JunctionSlab(box, lo, hi, (y >= box.min_y) & (y <= box.max_y))

    def region_ids(
        self, junctions: JunctionSlab, bound: str
    ) -> Optional[Tuple[int, ...]]:
        """Region approximation as a sorted tuple; ``None`` on a miss.

        Mirrors :meth:`SensorNetwork.lower_regions` /
        :meth:`~repro.sampling.SensorNetwork.upper_regions`: the lower
        bound keeps the regions whose junction extent lies in the
        (inclusive) box; the upper bound keeps every region the box's
        junctions fall in and misses when the EXT region is one of them
        (no bounded superset exists).
        """
        if bound == LOWER:
            box = junctions.box
            min_x, min_y, max_x, max_y = self.index.region_extent
            selected = (
                (min_x >= box.min_x) & (max_x <= box.max_x)
                & (min_y >= box.min_y) & (max_y <= box.max_y)
            )
        else:
            index = self.index
            selected = np.bincount(
                index.region_by_x[junctions.lo:junctions.hi][junctions.inside],
                minlength=index.n_regions,
            )
            if selected[index.ext_region]:
                return None
        regions = selected.nonzero()[0]
        return tuple(regions.tolist()) if len(regions) else None

    def boundary(self, regions: Tuple[int, ...]) -> BoundaryChain:
        """Boundary chain of a union of regions: the walls exactly one
        side of which is selected, each signed inward from that side —
        a wall between two selected regions is interior and cancels,
        exactly like the Python path's ``region_of[u] not in selected``
        test."""
        index = self.index
        if len(regions) == 1 and regions[0] != index.ext_region:
            # One region has no interior walls to cancel; its slice is
            # stored ascending, so it already is the canonical chain.
            lo = index.rw_offsets[regions[0]]
            hi = index.rw_offsets[regions[0] + 1]
            return BoundaryChain(
                index.rw_wall_ids[lo:hi], index.rw_signs[lo:hi]
            )
        member = np.zeros(index.n_regions, dtype=np.int8)
        member[np.fromiter(regions, np.intp, len(regions))] = 1
        if member[index.ext_region]:
            raise QueryError("query regions cannot include the EXT region")
        first, second = index.side_regions
        # +1 where only the first side is selected, -1 where only the
        # second is, 0 where both or neither are.
        side = member[first] - member[second]
        on = side.view(bool).nonzero()[0]
        return BoundaryChain(index.side_walls[on], side[on] * index.side_signs[on])

    def chain_sensors(self, chain: BoundaryChain) -> np.ndarray:
        """Unique owning sensors of a chain (ascending): one gather of
        the shifted owner table into a per-sensor mask."""
        owners = self.index.wall_owners_dense()
        seen = np.zeros(self._sensor_slots, dtype=bool)
        seen[owners[chain.wall_ids]] = True
        seen[0] = False  # the padding's slot
        return seen.nonzero()[0] - 1

    def flood_sensors(self, regions: Tuple[int, ...]) -> np.ndarray:
        """Unique blocks incident to any junction of the regions."""
        index = self.index
        rows = np.asarray(regions, dtype=np.int64)
        junctions = index.rj_junctions[_csr_rows(index.rj_offsets, rows)[0]]
        jb_offsets, jb_blocks = index.junction_blocks(self.domain)
        blocks = jb_blocks[_csr_rows(jb_offsets, junctions)[0]]
        if len(blocks) == 0:
            return blocks
        seen = np.bincount(blocks)  # block-id universe is small
        return np.flatnonzero(seen)

    # ------------------------------------------------------------------
    # The batch surface: the same four steps, every distinct key of a
    # batch at once, by the same rules: R2 from the region extents,
    # R1 from the boxes' region columns, a wall on a chain when its far
    # side is not selected — one gather from the rows' membership
    # table — and sensors counted over integer pair keys
    # ``row * universe + id`` that one ``np.bincount`` answers for all
    # rows together.  Rows are cut into slices
    # (:func:`_row_slices`) wherever a step allocates per row.  A plan
    # table row keeps its chain as a view of its batch's ChainBatch;
    # ``join_chains`` joins held chains into a new one.
    # ------------------------------------------------------------------
    def batch_junctions(
        self, boxes: Sequence
    ) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], List[int]]:
        """The junctions inside each box (``(min_x, min_y, max_x,
        max_y)``), as one CSR over the boxes of their **region ids**
        plus the boxes' corners (all the region step reads of them),
        and the junction count per box.  Both x-bounds of every box are
        two ``searchsorted`` calls on the sorted-coordinate index; the
        y-filter runs over the x-slabs (a slab is at most every
        junction: that is a row's scratch)."""
        xs, ys, _ = self._bbox
        corners = np.array(boxes).reshape(-1, 4)
        x0, y0, x1, y1 = corners.T
        lo = np.searchsorted(xs, x0, side="left")
        slab = np.maximum(np.searchsorted(xs, x1, side="right") - lo, 0)
        counts = np.zeros(len(boxes), dtype=np.int64)
        inside = [_EMPTY_I32]
        for start, stop in _row_slices(len(boxes), len(xs)):
            rows, width = slice(start, stop), slab[start:stop]
            take = csr_take(lo[rows], width)
            y = ys[take]
            keep = np.flatnonzero(
                (y >= np.repeat(y0[rows], width))
                & (y <= np.repeat(y1[rows], width))
            )
            row = np.repeat(np.arange(start, stop), width)
            counts += np.bincount(row[keep], minlength=len(boxes))
            inside.append(self.index.region_by_x[take[keep]])
        offsets = np.concatenate(([0], np.cumsum(counts)))
        return (offsets, np.concatenate(inside), corners), counts.tolist()

    def batch_regions(
        self, found, boxes: Sequence[int], bounds: Sequence[str]
    ) -> List[Optional[Tuple[int, ...]]]:
        """:meth:`region_ids` of every (box row of ``found``, bound)
        pair, by the same two rules over a slice of pairs at once: a
        lower bound's regions from its box's four comparisons against
        every extent, an upper bound's from scattering its junctions'
        regions into the slice's membership table."""
        index = self.index
        offsets, touched, corners = found
        boxes = np.asarray(boxes, dtype=np.int64)
        lower = np.array([bound == LOWER for bound in bounds], dtype=bool)
        n, ext = index.n_regions, index.ext_region
        min_x, min_y, max_x, max_y = index.region_extent
        out: List[Optional[Tuple[int, ...]]] = []
        for start, stop in _row_slices(len(boxes), n):
            rows = stop - start
            member = np.zeros((rows, n), dtype=bool)
            enclosed = np.flatnonzero(lower[start:stop])
            x0, y0, x1, y1 = corners[boxes[start + enclosed]].T[..., None]
            member[enclosed] = (
                (min_x >= x0) & (max_x <= x1) & (min_y >= y0) & (max_y <= y1)
            )
            covering = np.flatnonzero(~lower[start:stop])
            take, lens = _csr_rows(offsets, boxes[start + covering])
            member[np.repeat(covering, lens), touched[take]] = True
            # An upper bound that touches the EXT region has no bounded
            # superset and misses (no extent puts EXT in a lower one).
            member[member[:, ext]] = False
            pair, region = np.nonzero(member)
            ends = np.cumsum(np.bincount(pair, minlength=rows)).tolist()
            region = region.tolist()
            for begin, end in zip([0] + ends, ends):
                out.append(tuple(region[begin:end]) if end > begin else None)
        return out

    def batch_chains(
        self, regions: Sequence[Tuple[int, ...]]
    ) -> ChainBatch:
        """:meth:`boundary` of every region tuple, without a wall
        universe per row: of the selected regions' wall slices, the
        entries whose far side (the index's ``rw_across``) is not
        selected in the same row — one gather from the rows'
        membership table — sorted by ``row * n_walls + wall`` into
        ascending chains."""
        index, n = self.index, self._n_walls
        across, width = index.rw_across, index.n_regions
        sizes = np.fromiter(map(len, regions), np.int64, len(regions))
        flat = np.fromiter(flatten.from_iterable(regions), np.int64)
        ends = np.cumsum(sizes)
        keys, signs = [np.empty(0, dtype=np.int64)], [_EMPTY_I8]
        for start, stop in _row_slices(len(regions), width):
            selected = flat[ends[start] - sizes[start]:ends[stop - 1]]
            row = np.repeat(np.arange(stop - start), sizes[start:stop])
            member = np.zeros((stop - start) * width, dtype=bool)
            member[row * width + selected] = True
            take, per_region = _csr_rows(index.rw_offsets, selected)
            row = np.repeat(row, per_region)
            on = np.flatnonzero(~member[row * width + across[take]])
            take = take[on]
            keys.append((row[on] + start) * n + index.rw_wall_ids[take])
            signs.append(index.rw_signs[take])
        keys = np.concatenate(keys)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        lens = np.bincount(keys // n, minlength=len(regions))
        return ChainBatch(
            np.concatenate(([0], np.cumsum(lens))),
            (keys % n).astype(np.int32),
            np.concatenate(signs)[order],
        )

    def join_chains(self, chains: Sequence[BoundaryChain]) -> ChainBatch:
        """The chains, in order, as one :class:`ChainBatch`."""
        return ChainBatch(
            np.cumsum([0] + [len(link) for link in chains]),
            np.concatenate([c.wall_ids for c in chains] or [_EMPTY_I32]),
            np.concatenate([c.signs for c in chains] or [_EMPTY_I8]),
        )

    def batch_sensors(self, chains: ChainBatch) -> List[int]:
        """``len(chain_sensors(chain))`` of every chain: one gather
        over the dense owner table, owners counted once per chain over
        ``chain * sensors + owner`` keys."""
        owners, n = self.index.wall_owners_dense(), self._sensor_slots
        sizes = np.diff(chains.offsets)
        out = []
        for start, stop in _row_slices(len(sizes), n):
            rows = stop - start
            link = slice(chains.offsets[start], chains.offsets[stop])
            row = np.repeat(np.arange(rows), sizes[start:stop])
            # The padding lands in column 0.
            keys = owners[chains.wall_ids[link]] + (row * n)[:, None]
            seen = np.bincount(keys.ravel(), minlength=rows * n)
            out += np.count_nonzero(
                seen.reshape(rows, n)[:, 1:], axis=1
            ).tolist()
        return out

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def integrate_batch(
        self,
        store,
        chains: ChainBatch,
        touches: np.ndarray,
        chain: np.ndarray,
        times: np.ndarray,
    ) -> np.ndarray:
        """Cumulative net at every evaluation point ``(chain[p],
        times[p])`` of a batch, ``touches[c]`` queries behind chain
        ``c``.  The points are grouped by chain; a store with a batch
        hook (:meth:`~repro.forms.CompiledTrackingForm.integrate_batch`)
        then takes them in one call, any other id-native store is
        handed each chain once, with all of its times."""
        order = np.argsort(chain, kind="stable")
        cuts = np.searchsorted(chain[order], np.arange(len(chains) + 1))
        grouped = times[order]
        hook = getattr(store, "integrate_batch", None)
        if hook is not None:
            nets = hook(chains, touches, cuts, grouped)
        else:
            nets = np.empty(chain.size, dtype=np.int64)
            for c in np.flatnonzero(touches).tolist():
                at, link = slice(cuts[c], cuts[c + 1]), chains[c]
                nets[at] = store.integrate_at_ids(
                    link.wall_ids, link.signs, grouped[at].tolist()
                )
        out = np.empty_like(nets)
        out[order] = nets
        return out

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
        chain per query.  The engine runs this planner only on stores
        that have that path.
        """
        wall_ids, signs = chain.wall_ids, chain.signs
        if query.kind == TRANSIENT:
            return store.integrate_between_ids(
                wall_ids, signs, query.t1, query.t2
            )
        times = query.static_times(static_eval)
        if len(times) == 1:
            return store.integrate_until_ids(wall_ids, signs, times[0])
        # "min": both endpoints from one touch of the chain.
        return int(min(store.integrate_at_ids(wall_ids, signs, times)))

    def decode_edges(self, chain: BoundaryChain) -> List[DirectedEdge]:
        """The chain as inward-directed ``(u, v)`` edges, decoded per
        call: its caller (a degraded dispatch) walks the edges in
        Python anyway."""
        edge_of = self.domain.edge_interner.edge
        edges = []
        for eid, sign in zip(chain.wall_ids.tolist(), chain.signs.tolist()):
            u, v = edge_of(eid)
            edges.append((u, v) if sign > 0 else (v, u))
        return edges

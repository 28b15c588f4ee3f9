"""The mobility domain: road network + sensing dual + entry topology.

:class:`MobilityDomain` bundles everything the pipeline derives from a
road network once and reuses everywhere:

- the planar mobility graph ``*G`` and its traced faces (city blocks);
- the sensing dual graph ``G`` (one sensor region per block, one
  sensing edge per road, §3.2.3);
- the virtual external junction ``EXT`` behind every boundary junction,
  realising the paper's infinity node ``*v_ext`` (Fig. 8a): objects
  enter and leave the sensed world through it, so their appearance and
  disappearance generate ordinary crossing events;
- spatial lookups (junction kd-tree, junctions-in-rectangle).

Occupancy semantics: a moving object occupies a junction of ``*G`` (its
sensing face in ``G``); moving along a road ``{u, v}`` crosses the dual
sensing edge, recorded as the directed crossing ``(u, v)``.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import GraphStructureError, QueryError
from ..geometry import BBox, Point
from ..planar import (
    DualGraph,
    EdgeInterner,
    FaceSet,
    NodeId,
    PlanarGraph,
    build_dual,
    trace_faces,
)

#: The virtual external junction (the paper's ``*v_ext``).
EXT: str = "__ext__"

DirectedEdge = Tuple[NodeId, NodeId]

#: Shared empty result of rectangle probes that bound no junctions.
_EMPTY_IDS = np.empty(0, dtype=np.int32)


class MobilityDomain:
    """Immutable bundle of the mobility graph and derived structures."""

    def __init__(self, road_graph: PlanarGraph) -> None:
        if road_graph.node_count < 3:
            raise GraphStructureError("road network too small")
        if not road_graph.is_connected():
            raise GraphStructureError(
                "road network must be connected; use largest_component()"
            )
        self.graph: PlanarGraph = road_graph
        self.faces: FaceSet = trace_faces(road_graph)
        self.dual: DualGraph = build_dual(road_graph, self.faces)

        self.junctions: List[NodeId] = list(road_graph.nodes())
        self._positions = np.array(
            [road_graph.position(n) for n in self.junctions], dtype=float
        )
        self._junction_index = {n: i for i, n in enumerate(self.junctions)}
        from scipy.spatial import cKDTree

        self._tree = cKDTree(self._positions)

        # Sorted-coordinate bbox index: junction indices ordered by x,
        # with the matching x/y coordinate arrays.  Rectangle probes
        # binary-search the x range and mask the y coordinates of that
        # slice only; the compiled query planner probes it directly
        # (:meth:`bbox_index`), keeping a box's junctions as that slab.
        order = np.argsort(self._positions[:, 0], kind="stable")
        self._bbox_order = order.astype(np.int32)
        self._bbox_x = np.ascontiguousarray(self._positions[order, 0])
        self._bbox_y = np.ascontiguousarray(self._positions[order, 1])

        self.boundary_junctions: List[NodeId] = self._outer_cycle_nodes()
        self._entry_predecessor = self._boundary_tree()
        self._edge_interner: Optional[EdgeInterner] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def bounds(self) -> BBox:
        return self.graph.bounds()

    @property
    def junction_count(self) -> int:
        return len(self.junctions)

    @property
    def block_count(self) -> int:
        """Number of sensing regions (interior faces / dual nodes)."""
        return len(self.faces.interior_faces)

    @property
    def sensing_edge_count(self) -> int:
        """Sensing edges = roads + boundary (EXT) geofence edges."""
        return self.graph.edge_count + len(self.boundary_junctions)

    def position(self, junction: NodeId) -> Point:
        return self.graph.position(junction)

    @property
    def junction_index(self) -> Dict[NodeId, int]:
        """Junction → dense index into :attr:`junctions` (do not mutate)."""
        return self._junction_index

    def nearest_junction(self, point: Point) -> NodeId:
        _, index = self._tree.query(np.asarray(point, dtype=float))
        return self.junctions[int(index)]

    def junctions_in_bbox(self, box: BBox) -> Set[NodeId]:
        """All junctions whose coordinates fall inside the rectangle."""
        junctions = self.junctions
        return {junctions[i] for i in self.junction_ids_in_bbox(box)}

    def junction_ids_in_bbox(self, box: BBox) -> np.ndarray:
        """Junction *indices* inside the rectangle, ascending ``int32``.

        Indices refer to :attr:`junctions` order.  Served by the
        sorted-coordinate index: two binary searches bound the x range,
        one vectorised mask filters its y coordinates.  Bounds are
        inclusive on every side, exactly like :meth:`junctions_in_bbox`.
        """
        lo = int(np.searchsorted(self._bbox_x, box.min_x, side="left"))
        hi = int(np.searchsorted(self._bbox_x, box.max_x, side="right"))
        if lo >= hi:
            return _EMPTY_IDS
        ys = self._bbox_y[lo:hi]
        hits = self._bbox_order[lo:hi][
            (ys >= box.min_y) & (ys <= box.max_y)
        ]
        hits.sort()
        return hits

    def bbox_index(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sorted-coordinate index itself — ``x`` ascending, the
        matching ``y``, the junction index of each entry — for callers
        that probe many rectangles at once (the batch query plan)."""
        return self._bbox_x, self._bbox_y, self._bbox_order

    # ------------------------------------------------------------------
    # Sensing-edge topology (including the EXT geofence)
    # ------------------------------------------------------------------
    def sensing_neighbors(self, junction: NodeId) -> Set[NodeId]:
        """Neighbours across sensing edges, including EXT on the rim."""
        if junction == EXT:
            return set(self.boundary_junctions)
        neighbours = self.graph.neighbors(junction)
        if junction in self._boundary_set:
            neighbours.add(EXT)
        return neighbours

    def sensing_edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """All undirected sensing edges: roads plus (EXT, rim junction)."""
        yield from self.graph.edges()
        for b in self.boundary_junctions:
            yield (EXT, b)

    @property
    def edge_interner(self) -> EdgeInterner:
        """Interned canonical-edge → dense-id table over sensing edges.

        Built lazily, pre-seeded with every sensing edge (roads + EXT
        geofence) in deterministic iteration order, and shared by the
        columnar event store (:class:`repro.trajectories.EventColumns`)
        and compiled tracking forms so all of them agree on edge ids.
        Unknown edges intern on demand, so synthetic streams over
        non-sensing edges still columnarise.
        """
        if self._edge_interner is None:
            self._edge_interner = EdgeInterner(self.sensing_edges())
        return self._edge_interner

    def inward_boundary_edges(
        self, region: Set[NodeId]
    ) -> List[DirectedEdge]:
        """Directed boundary chain of a junction region, oriented inward.

        For every sensing edge with exactly one endpoint in ``region``,
        yields the direction whose head is inside.  Integrating the
        tracking form over this chain gives Theorems 4.1/4.2/4.3 for
        the region.  ``region`` must not contain EXT.
        """
        if EXT in region:
            raise QueryError("query regions cannot include the EXT node")
        chain: List[DirectedEdge] = []
        for v in region:
            for u in self.graph.neighbors(v):
                if u not in region:
                    chain.append((u, v))
            if v in self._boundary_set:
                chain.append((EXT, v))
        return chain

    # ------------------------------------------------------------------
    # Entry/exit topology (the *v_ext walks)
    # ------------------------------------------------------------------
    def entry_path(self, junction: NodeId) -> List[NodeId]:
        """Walk from EXT into ``junction``: ``[EXT, rim, ..., junction]``.

        This realises "the object enters the sensed world": an object
        appearing at an interior junction is modelled as driving in from
        the nearest domain boundary instantaneously at its start time,
        so every sensing region it ends up inside sees the entry.
        """
        path = [junction]
        current = junction
        while current is not None:
            previous = self._entry_predecessor.get(current)
            if previous is None:
                break
            path.append(previous)
            current = previous
        path.append(EXT)
        path.reverse()
        return path

    def exit_path(self, junction: NodeId) -> List[NodeId]:
        """Walk from ``junction`` out to EXT (reverse of entry)."""
        return list(reversed(self.entry_path(junction)))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _outer_cycle_nodes(self) -> List[NodeId]:
        outer_id = self.faces.outer_face_id
        if outer_id is None:
            raise GraphStructureError("road network has no outer face")
        cycle = self.faces.faces[outer_id].cycle
        seen: Set[NodeId] = set()
        ordered: List[NodeId] = []
        for node in cycle:
            if node not in seen:
                seen.add(node)
                ordered.append(node)
        self._boundary_set = seen
        return ordered

    def _boundary_tree(self) -> Dict[NodeId, Optional[NodeId]]:
        """Multi-source Dijkstra from the rim: predecessor toward rim."""
        dist: Dict[NodeId, float] = {}
        predecessor: Dict[NodeId, Optional[NodeId]] = {}
        heap: List[Tuple[float, int, NodeId]] = []
        counter = 0
        for b in self.boundary_junctions:
            dist[b] = 0.0
            predecessor[b] = None
            heapq.heappush(heap, (0.0, counter, b))
            counter += 1
        visited: Set[NodeId] = set()
        while heap:
            d, _, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            for neighbour in self.graph.neighbors(node):
                if neighbour in visited:
                    continue
                nd = d + self.graph.edge_length(node, neighbour)
                if nd < dist.get(neighbour, math.inf):
                    dist[neighbour] = nd
                    predecessor[neighbour] = node
                    counter += 1
                    heapq.heappush(heap, (nd, counter, neighbour))
        missing = set(self.junctions) - set(predecessor)
        if missing:
            raise GraphStructureError(
                f"{len(missing)} junctions unreachable from the domain rim"
            )
        return predecessor

    def __repr__(self) -> str:
        return (
            f"MobilityDomain(junctions={self.junction_count}, "
            f"roads={self.graph.edge_count}, blocks={self.block_count})"
        )

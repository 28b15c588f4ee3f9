"""Dual graph of an embedded planar graph.

The sensing graph ``G`` is constructed as the dual of the mobility graph
``*G`` (§3.2.3): one sensor (dual node) per face of ``*G`` — a city
block when ``*G`` is a road network — and one dual (sensing) edge per
primal edge, connecting the two blocks the road separates.  A moving
object travelling along primal edge ``*e`` crosses the dual edge ``e``
(vertex-edge duality, §4.7.1), which is where the differential forms
live.

Two faces can share several primal edges, so the dual is a multigraph at
heart; the class keeps the exact primal-edge <-> dual-edge bijection and
additionally exposes a simple weighted adjacency (used for shortest-path
routing of sampled-graph edges, §4.5) in which parallel dual edges are
collapsed to the representative with the shortest crossing.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import GraphStructureError, PlanarityError
from ..geometry import Point, distance
from .faces import FaceSet, trace_faces
from .graph import Edge, NodeId, PlanarGraph, canonical_edge


@dataclass
class DualGraph:
    """Dual of a planar graph, with the primal retained.

    Dual node ids are primal face ids (ints).  The outer face is a
    legitimate dual node — the paper's infinity node ``*v_ext`` that
    sources and sinks objects entering or leaving the domain.
    """

    primal: PlanarGraph
    primal_faces: FaceSet
    node_positions: Dict[int, Point]
    outer_node: Optional[int]
    #: canonical primal edge -> (face left of (u,v), face left of (v,u))
    edge_faces: Dict[Edge, Tuple[int, int]]
    #: collapsed weighted adjacency: face -> {face: (weight, primal edge)}
    _adjacency: Dict[int, Dict[int, Tuple[float, Edge]]] = field(repr=False)

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self.node_positions)

    @property
    def interior_nodes(self) -> List[int]:
        """Dual nodes excluding the infinity node."""
        return [n for n in self.node_positions if n != self.outer_node]

    def position(self, node: int) -> Point:
        try:
            return self.node_positions[node]
        except KeyError:
            raise GraphStructureError(f"unknown dual node {node!r}") from None

    def faces_of_primal_edge(self, u: NodeId, v: NodeId) -> Tuple[int, int]:
        """Dual endpoints (faces) separated by primal edge ``{u, v}``."""
        edge = canonical_edge(u, v)
        try:
            return self.edge_faces[edge]
        except KeyError:
            raise GraphStructureError(f"unknown primal edge {edge!r}") from None

    def neighbors(self, node: int) -> Set[int]:
        return set(self._adjacency.get(node, ()))

    def mean_interior_edge_length(self) -> float:
        """Mean Euclidean length of interior dual edges (cached).

        The shared hop-length statistic of the communication modules:
        both :class:`repro.network.NetworkSimulator` and the energy
        model of the §3.1 ablation (``benchmarks/lib/energy.py``)
        convert Euclidean distances
        into hop counts / per-hop energies using this value, so the two
        accountings cannot drift.  Bridges (same face on both sides)
        and edges touching the infinity node are excluded; degenerate
        duals fall back to 1.0.
        """
        cached = getattr(self, "_mean_interior_edge_length", None)
        if cached is None:
            total, count = 0.0, 0
            for left, right in self.edge_faces.values():
                if left == right or self.outer_node in (left, right):
                    continue
                total += distance(
                    self.node_positions[left], self.node_positions[right]
                )
                count += 1
            cached = (total / count) if count else 1.0
            self._mean_interior_edge_length = cached
        return cached

    # ------------------------------------------------------------------
    def shortest_path(
        self, source: int, target: int, forbidden: Optional[Set[int]] = None
    ) -> Optional[Tuple[List[int], List[Edge]]]:
        """Shortest dual path between two faces.

        Returns ``(face sequence, primal edges crossed)`` or None when
        unreachable.  ``forbidden`` excludes intermediate dual nodes
        (typically the infinity node, so sampled-graph edges are routed
        through the domain rather than around it).
        """
        if source not in self.node_positions or target not in self.node_positions:
            raise GraphStructureError("shortest_path endpoints must exist")
        blocked = forbidden or set()
        if source in blocked or target in blocked:
            raise GraphStructureError("endpoints may not be forbidden")
        if source == target:
            return ([source], [])

        dist: Dict[int, float] = {source: 0.0}
        prev: Dict[int, int] = {}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        visited: Set[int] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in visited:
                continue
            if node == target:
                break
            visited.add(node)
            for neighbour, (weight, _) in self._adjacency.get(node, {}).items():
                if neighbour in visited or neighbour in blocked:
                    continue
                nd = d + weight
                if nd < dist.get(neighbour, math.inf):
                    dist[neighbour] = nd
                    prev[neighbour] = node
                    heapq.heappush(heap, (nd, neighbour))
        if target not in dist:
            return None
        faces = [target]
        while faces[-1] != source:
            faces.append(prev[faces[-1]])
        faces.reverse()
        crossings = [
            self._adjacency[a][b][1] for a, b in zip(faces, faces[1:])
        ]
        return (faces, crossings)


def build_dual(
    primal: PlanarGraph, faces: Optional[FaceSet] = None
) -> DualGraph:
    """Construct the dual graph of an embedded planar graph.

    Interior dual nodes are placed at a representative interior point of
    their face; the infinity node is placed just outside the primal
    bounding box (its position only matters for visualisation).
    """
    if faces is None:
        faces = trace_faces(primal)
    if not faces.interior_faces:
        raise PlanarityError("cannot build a dual: no interior faces")

    positions: Dict[int, Point] = {}
    for face in faces.faces:
        if face.is_outer:
            continue
        positions[face.id] = face.interior_point()
    outer_node = faces.outer_face_id
    if outer_node is not None:
        box = primal.bounds()
        positions[outer_node] = (
            box.max_x + 0.25 * max(box.width, 1.0),
            (box.min_y + box.max_y) / 2.0,
        )

    edge_faces: Dict[Edge, Tuple[int, int]] = {}
    adjacency: Dict[int, Dict[int, Tuple[float, Edge]]] = {
        node: {} for node in positions
    }
    for u, v in primal.edges():
        left = faces.face_of_edge(u, v).id
        right = faces.face_of_edge(v, u).id
        edge = canonical_edge(u, v)
        edge_faces[edge] = (left, right)
        if left == right:
            continue  # bridge: no dual connectivity through it
        weight = distance(positions[left], positions[right])
        existing = adjacency[left].get(right)
        if existing is None or weight < existing[0]:
            adjacency[left][right] = (weight, edge)
            adjacency[right][left] = (weight, edge)

    return DualGraph(
        primal=primal,
        primal_faces=faces,
        node_positions=positions,
        outer_node=outer_node,
        edge_faces=edge_faces,
        _adjacency=adjacency,
    )

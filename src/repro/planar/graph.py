"""Embedded planar graph (straight-line embedding).

The central data structure of the library: an undirected graph whose
nodes carry 2-D coordinates, drawn with straight edges.  The embedding
induces a *rotation system* (the counter-clockwise cyclic order of the
neighbours around each node), from which the faces of the planar
subdivision are traced (:mod:`repro.planar.faces`).

The same class represents the mobility graph ``*G`` (road network), the
sensing graph ``G`` (its dual) and sampled graphs ``G~``.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import GraphStructureError
from ..geometry import BBox, Point, distance

NodeId = Hashable
Edge = Tuple[NodeId, NodeId]


def canonical_edge(u: NodeId, v: NodeId) -> Edge:
    """Canonical (sorted-by-repr) undirected form of edge ``(u, v)``.

    Node ids may be heterogeneous (ints, strings, tuples); sorting uses
    ``(type-name, repr)`` so ordering is total and deterministic.
    """
    ku = (type(u).__name__, repr(u))
    kv = (type(v).__name__, repr(v))
    return (u, v) if ku <= kv else (v, u)


class _DirectedCodes(dict):
    """``(u, v) -> 2 * id + direction`` of the directed edges seen so
    far (direction 0 along the canonical orientation, 1 against it).
    Looking up an unseen edge interns it."""

    __slots__ = ("_assign",)

    def __init__(self, assign) -> None:
        self._assign = assign

    def __missing__(self, directed: Edge) -> int:
        code = self[directed] = self._assign(directed)
        return code


class EdgeInterner:
    """Bidirectional canonical-edge ↔ dense-integer-id table.

    The columnar event store and the compiled tracking forms address
    edges by a dense ``int32`` id instead of hashing ``(NodeId, NodeId)``
    tuples on every access.  Ids are assigned in interning order, so a
    table pre-seeded from :meth:`MobilityDomain.sensing_edges` is stable
    across runs of the same domain.

    :attr:`codes` memoises the *directed* lookup, so the per-event
    canonicalisation cost (type-name/repr comparison) is paid once per
    distinct directed edge, not per event.
    """

    __slots__ = ("_ids", "_edges", "codes")

    def __init__(self, edges: Optional[Iterable[Edge]] = None) -> None:
        self._ids: Dict[Edge, int] = {}
        self._edges: List[Edge] = []
        #: ``codes[u, v]`` is ``2 * id + direction`` of the directed
        #: edge, interning it on a miss: a plain dict hit per event,
        #: which is what lets the columnar ingest
        #: (:meth:`repro.trajectories.EventColumns.from_events`) map it
        #: over a whole event window without a Python-level loop.
        self.codes = _DirectedCodes(self._assign)
        if edges is not None:
            for u, v in edges:
                self.intern(u, v)

    def _assign(self, directed: Edge) -> int:
        key = canonical_edge(*directed)
        edge_id = self._ids.get(key)
        if edge_id is None:
            edge_id = len(self._edges)
            self._ids[key] = edge_id
            self._edges.append(key)
        return 2 * edge_id + (key != directed)

    def intern(self, u: NodeId, v: NodeId) -> Tuple[int, bool]:
        """Id of edge ``{u, v}`` (assigning one if new) and whether the
        directed edge ``(u, v)`` matches the canonical orientation."""
        code = self.codes[u, v]
        return code >> 1, not code & 1

    def id_of(self, u: NodeId, v: NodeId) -> Tuple[int, bool]:
        """Like :meth:`intern` but returns ``(-1, forward)`` for unknown
        edges instead of assigning a new id."""
        if (u, v) not in self.codes:
            key = canonical_edge(u, v)
            if key not in self._ids:
                return (-1, key == (u, v))
        return self.intern(u, v)

    def id_of_canonical(self, key: Edge) -> int:
        """Id of an already-canonical edge, ``-1`` if unknown."""
        return self._ids.get(key, -1)

    def edge(self, edge_id: int) -> Edge:
        """The canonical edge stored under ``edge_id``."""
        return self._edges[edge_id]

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, key: Edge) -> bool:
        return key in self._ids


class PlanarGraph:
    """An undirected graph with a straight-line planar embedding.

    Mutating operations invalidate cached derived structures (rotation
    system, faces); the caches rebuild lazily on next access.
    """

    def __init__(self) -> None:
        self._positions: Dict[NodeId, Point] = {}
        self._adjacency: Dict[NodeId, Set[NodeId]] = {}
        self._rotation_cache: Optional[Dict[NodeId, List[NodeId]]] = None

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, position: Point) -> None:
        """Add (or move) a node at ``position``."""
        self._positions[node] = (float(position[0]), float(position[1]))
        self._adjacency.setdefault(node, set())
        self._invalidate()

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Add the undirected edge ``{u, v}``; both nodes must exist."""
        if u == v:
            raise GraphStructureError(f"self-loop on node {u!r} not allowed")
        for node in (u, v):
            if node not in self._positions:
                raise GraphStructureError(f"unknown node {node!r}")
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._invalidate()

    def remove_node(self, node: NodeId) -> None:
        """Remove a node and all incident edges."""
        if node not in self._positions:
            return
        for neighbour in list(self._adjacency[node]):
            self._adjacency[neighbour].discard(node)
        del self._adjacency[node]
        del self._positions[node]
        self._invalidate()

    def _invalidate(self) -> None:
        self._rotation_cache = None

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __contains__(self, node: NodeId) -> bool:
        return node in self._positions

    @property
    def node_count(self) -> int:
        return len(self._positions)

    @property
    def edge_count(self) -> int:
        return sum(len(adj) for adj in self._adjacency.values()) // 2

    def nodes(self) -> Iterator[NodeId]:
        """Iterate node ids (insertion order)."""
        return iter(self._positions)

    def edges(self) -> Iterator[Edge]:
        """Iterate undirected edges once each, in canonical form."""
        seen: Set[Edge] = set()
        for u, adj in self._adjacency.items():
            for v in adj:
                edge = canonical_edge(u, v)
                if edge not in seen:
                    seen.add(edge)
                    yield edge

    def position(self, node: NodeId) -> Point:
        try:
            return self._positions[node]
        except KeyError:
            raise GraphStructureError(f"unknown node {node!r}") from None

    def positions(self) -> Dict[NodeId, Point]:
        """A copy of the node-position mapping."""
        return dict(self._positions)

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        try:
            return set(self._adjacency[node])
        except KeyError:
            raise GraphStructureError(f"unknown node {node!r}") from None

    def degree(self, node: NodeId) -> int:
        return len(self._adjacency.get(node, ()))

    def edge_length(self, u: NodeId, v: NodeId) -> float:
        return distance(self.position(u), self.position(v))

    def bounds(self) -> BBox:
        """Bounding box of all node positions."""
        if not self._positions:
            raise GraphStructureError("bounds of an empty graph")
        return BBox.from_points(self._positions.values())

    # ------------------------------------------------------------------
    # Rotation system
    # ------------------------------------------------------------------
    def rotation_system(self) -> Dict[NodeId, List[NodeId]]:
        """The full rotation system, cached until the next mutation."""
        if self._rotation_cache is None:
            system: Dict[NodeId, List[NodeId]] = {}
            for node, adj in self._adjacency.items():
                ox, oy = self._positions[node]
                system[node] = sorted(
                    adj,
                    key=lambda nb: math.atan2(
                        self._positions[nb][1] - oy,
                        self._positions[nb][0] - ox,
                    ),
                )
            self._rotation_cache = system
        return self._rotation_cache

    def next_face_edge(self, u: NodeId, v: NodeId) -> Tuple[NodeId, NodeId]:
        """Successor of directed edge ``(u, v)`` along its face.

        Standard face-tracing rule: at ``v``, leave through the neighbour
        that precedes ``u`` in the counter-clockwise rotation around
        ``v`` (i.e. the next edge clockwise).  Interior faces then come
        out counter-clockwise, the outer face clockwise.
        """
        rotation = self.rotation_system()[v]
        index = rotation.index(u)
        return (v, rotation[index - 1])

    # ------------------------------------------------------------------
    # Algorithms & conversions
    # ------------------------------------------------------------------
    def connected_components(self) -> List[Set[NodeId]]:
        """Connected components as sets of node ids."""
        remaining = set(self._positions)
        components: List[Set[NodeId]] = []
        while remaining:
            start = next(iter(remaining))
            seen = {start}
            stack = [start]
            while stack:
                current = stack.pop()
                for neighbour in self._adjacency[current]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        stack.append(neighbour)
            components.append(seen)
            remaining -= seen
        return components

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def shortest_path(
        self, source: NodeId, target: NodeId
    ) -> Optional[List[NodeId]]:
        """Euclidean-weighted shortest path (Dijkstra), or None."""
        import heapq

        if source not in self._positions or target not in self._positions:
            raise GraphStructureError("shortest_path endpoints must exist")
        if source == target:
            return [source]
        dist: Dict[NodeId, float] = {source: 0.0}
        prev: Dict[NodeId, NodeId] = {}
        counter = 0
        heap: List[Tuple[float, int, NodeId]] = [(0.0, counter, source)]
        visited: Set[NodeId] = set()
        while heap:
            d, _, node = heapq.heappop(heap)
            if node in visited:
                continue
            if node == target:
                break
            visited.add(node)
            for neighbour in self._adjacency[node]:
                if neighbour in visited:
                    continue
                nd = d + self.edge_length(node, neighbour)
                if nd < dist.get(neighbour, math.inf):
                    dist[neighbour] = nd
                    prev[neighbour] = node
                    counter += 1
                    heapq.heappush(heap, (nd, counter, neighbour))
        if target not in dist:
            return None
        path = [target]
        while path[-1] != source:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def dijkstra_tree(
        self, source: NodeId
    ) -> Tuple[Dict[NodeId, float], Dict[NodeId, NodeId]]:
        """Full single-source shortest-path tree (Euclidean weights).

        Returns ``(distance, predecessor)`` maps; the source has no
        predecessor entry.  Used by workload generators that plan many
        trips from the same origin.
        """
        import heapq

        if source not in self._positions:
            raise GraphStructureError(f"unknown node {source!r}")
        dist: Dict[NodeId, float] = {source: 0.0}
        prev: Dict[NodeId, NodeId] = {}
        counter = 0
        heap: List[Tuple[float, int, NodeId]] = [(0.0, counter, source)]
        visited: Set[NodeId] = set()
        positions = self._positions
        while heap:
            d, _, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            nx_, ny_ = positions[node]
            for neighbour in self._adjacency[node]:
                if neighbour in visited:
                    continue
                px, py = positions[neighbour]
                nd = d + math.hypot(px - nx_, py - ny_)
                if nd < dist.get(neighbour, math.inf):
                    dist[neighbour] = nd
                    prev[neighbour] = node
                    counter += 1
                    heapq.heappush(heap, (nd, counter, neighbour))
        return dist, prev

    def path_from_tree(
        self,
        source: NodeId,
        target: NodeId,
        predecessor: Dict[NodeId, NodeId],
    ) -> Optional[List[NodeId]]:
        """Reconstruct a path from a :meth:`dijkstra_tree` predecessor map."""
        if target == source:
            return [source]
        if target not in predecessor:
            return None
        path = [target]
        while path[-1] != source:
            path.append(predecessor[path[-1]])
        path.reverse()
        return path

    @classmethod
    def from_edges(
        cls,
        positions: Dict[NodeId, Point],
        edges: Iterable[Edge],
    ) -> "PlanarGraph":
        """Build a graph from a position map and an edge list."""
        graph = cls()
        for node, pos in positions.items():
            graph.add_node(node, pos)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    def copy(self) -> "PlanarGraph":
        """Deep copy (positions and adjacency)."""
        clone = PlanarGraph()
        clone._positions = dict(self._positions)
        clone._adjacency = {n: set(a) for n, a in self._adjacency.items()}
        return clone

    def __repr__(self) -> str:
        return (
            f"PlanarGraph(nodes={self.node_count}, edges={self.edge_count})"
        )

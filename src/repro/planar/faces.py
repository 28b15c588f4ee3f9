"""Face extraction for embedded planar graphs.

Faces (2-cells of the induced cell complex, §3.4 of the paper) are traced
from the rotation system: every directed edge belongs to exactly one face
walk, and following :meth:`PlanarGraph.next_face_edge` from any directed
edge closes the walk of its face.  With the counter-clockwise convention
interior faces have positive signed area and the single unbounded (outer)
face has negative signed area — the outer face plays the role of the
infinity node's region (``*v_ext`` in Fig. 8a of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import PlanarityError
from ..geometry import Point, representative_point, signed_area
from .graph import NodeId, PlanarGraph

DirectedEdge = Tuple[NodeId, NodeId]


@dataclass(frozen=True)
class Face:
    """One face of a planar subdivision.

    ``cycle`` is the node walk bounding the face, oriented so that the
    face lies to the left (counter-clockwise for interior faces).  For
    graphs with bridges a node may repeat within the walk.
    """

    id: int
    cycle: Tuple[NodeId, ...]
    polygon: Tuple[Point, ...]
    signed_area: float
    is_outer: bool

    @property
    def area(self) -> float:
        """Absolute enclosed area (0 for fully degenerate walks)."""
        return abs(self.signed_area)

    def boundary_edges(self) -> List[DirectedEdge]:
        """The directed boundary walk as a 1-chain of directed edges.

        This is the discrete boundary operator ``∂`` applied to the face
        (Fig. 3b of the paper): integrating a differential 1-form over
        these edges yields the form's value on the face.
        """
        n = len(self.cycle)
        return [(self.cycle[i], self.cycle[(i + 1) % n]) for i in range(n)]

    def interior_point(self) -> Point:
        """A point strictly inside the face (outer face unsupported)."""
        if self.is_outer:
            raise PlanarityError("the outer face has no interior point")
        return representative_point(list(self.polygon))


@dataclass
class FaceSet:
    """All faces of a planar graph plus directed-edge -> face lookup."""

    faces: List[Face]
    edge_face: Dict[DirectedEdge, int]
    outer_face_id: Optional[int]

    @property
    def interior_faces(self) -> List[Face]:
        return [f for f in self.faces if not f.is_outer]

    def face_of_edge(self, u: NodeId, v: NodeId) -> Face:
        """The face lying to the left of directed edge ``(u, v)``."""
        try:
            return self.faces[self.edge_face[(u, v)]]
        except KeyError:
            raise PlanarityError(f"directed edge ({u!r}, {v!r}) unknown") from None


def trace_faces(graph: PlanarGraph) -> FaceSet:
    """Trace every face of ``graph`` from its rotation system.

    Requires a connected graph with at least one cycle (otherwise only
    the degenerate outer walk exists).  For a valid straight-line planar
    embedding the result satisfies Euler's formula
    ``V - E + F = 2`` (per connected component).
    """
    visited: Set[DirectedEdge] = set()
    faces: List[Face] = []
    edge_face: Dict[DirectedEdge, int] = {}

    for u, v in list(graph.edges()):
        for start in ((u, v), (v, u)):
            if start in visited:
                continue
            walk: List[NodeId] = []
            current = start
            while current not in visited:
                visited.add(current)
                walk.append(current[0])
                current = graph.next_face_edge(*current)
            if current != start:
                raise PlanarityError(
                    "face walk did not close; embedding is inconsistent"
                )
            polygon = tuple(graph.position(node) for node in walk)
            area = signed_area(polygon)
            face = Face(
                id=len(faces),
                cycle=tuple(walk),
                polygon=polygon,
                signed_area=area,
                is_outer=False,  # fixed below
            )
            faces.append(face)
            n = len(walk)
            for i in range(n):
                edge_face[(walk[i], walk[(i + 1) % n])] = face.id

    outer_id = _identify_outer_face(faces)
    if outer_id is not None:
        outer = faces[outer_id]
        faces[outer_id] = Face(
            id=outer.id,
            cycle=outer.cycle,
            polygon=outer.polygon,
            signed_area=outer.signed_area,
            is_outer=True,
        )
    return FaceSet(faces=faces, edge_face=edge_face, outer_face_id=outer_id)


def _identify_outer_face(faces: Sequence[Face]) -> Optional[int]:
    """The outer face is the one traced clockwise (most negative area)."""
    if not faces:
        return None
    outer_id = min(range(len(faces)), key=lambda i: faces[i].signed_area)
    if faces[outer_id].signed_area > 0:
        return None  # no clockwise walk: not a proper embedding
    return outer_id


def euler_characteristic(graph: PlanarGraph, faces: FaceSet) -> int:
    """``V - E + F``; equals 2 for a connected planar embedding."""
    return graph.node_count - graph.edge_count + len(faces.faces)

"""Chains and the discrete boundary operator (§3.4 of the paper).

A *k-chain* is a formal sum of oriented k-cells with integer weights.
The library uses 1-chains (directed edges) to express face perimeters
and region boundaries: the boundary of a union of faces is the 1-chain
in which interior shared edges cancel because the two adjacent faces
traverse them in opposite directions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from ..errors import PlanarityError
from .faces import DirectedEdge, FaceSet
from .graph import NodeId


@dataclass
class Chain:
    """A 1-chain: integer multiset of directed edges.

    Orientation reversal negates the coefficient, mirroring the
    differential-form identity ``ξ(-e) = -ξ(e)``: adding ``(u, v)`` and
    ``(v, u)`` cancels.
    """

    _coefficients: Dict[DirectedEdge, int] = field(default_factory=dict)

    @classmethod
    def from_edges(cls, edges: Iterable[DirectedEdge]) -> "Chain":
        chain = cls()
        for edge in edges:
            chain.add(edge)
        return chain

    def add(self, edge: DirectedEdge, weight: int = 1) -> None:
        """Add ``weight`` copies of the directed edge (may cancel)."""
        u, v = edge
        if u == v:
            raise PlanarityError("chains cannot contain self-loops")
        reverse = (v, u)
        if reverse in self._coefficients:
            self._coefficients[reverse] -= weight
            if self._coefficients[reverse] == 0:
                del self._coefficients[reverse]
            elif self._coefficients[reverse] < 0:
                self._coefficients[edge] = -self._coefficients.pop(reverse)
            return
        self._coefficients[edge] = self._coefficients.get(edge, 0) + weight
        if self._coefficients[edge] == 0:
            del self._coefficients[edge]

    def coefficient(self, edge: DirectedEdge) -> int:
        """Signed coefficient of the directed edge in this chain."""
        u, v = edge
        if edge in self._coefficients:
            return self._coefficients[edge]
        return -self._coefficients.get((v, u), 0)

    def __iter__(self) -> Iterator[Tuple[DirectedEdge, int]]:
        return iter(self._coefficients.items())

    def __len__(self) -> int:
        return len(self._coefficients)

    def __add__(self, other: "Chain") -> "Chain":
        result = Chain(dict(self._coefficients))
        for edge, weight in other:
            result.add(edge, weight)
        return result

    def __neg__(self) -> "Chain":
        return Chain({(v, u): w for (u, v), w in self._coefficients.items()})

    def edges(self) -> List[DirectedEdge]:
        """Directed edges with non-zero coefficient (sign-resolved)."""
        return list(self._coefficients)

    def nodes(self) -> Set[NodeId]:
        """All nodes touched by the chain."""
        found: Set[NodeId] = set()
        for u, v in self._coefficients:
            found.add(u)
            found.add(v)
        return found

    def is_cycle(self) -> bool:
        """True when every node has equal in- and out-degree.

        Boundaries of regions are always cycles (possibly several
        disjoint loops).
        """
        balance: Counter = Counter()
        for (u, v), weight in self._coefficients.items():
            balance[u] -= weight
            balance[v] += weight
        return all(value == 0 for value in balance.values())


def region_boundary(faces: FaceSet, face_ids: Iterable[int]) -> Chain:
    """∂ of a union of faces.

    Interior edges (shared by two selected faces) cancel; what remains
    is the oriented perimeter of the region — exactly the set of edges
    whose differential forms must be aggregated to answer a range count
    query on the region (§4.7).
    """
    chain = Chain()
    selected = set(face_ids)
    for face_id in selected:
        for edge in faces.faces[face_id].boundary_edges():
            chain.add(edge)
    return chain

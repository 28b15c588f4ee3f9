"""Snapshot differential 1-forms (§4.7.1, Eq. 7, Theorem 4.1).

A differential 1-form assigns a real value to every *directed* edge with
the antisymmetry ``ξ(-e) = -ξ(e)``.  The paper tracks movements with a
*pair* of monotone counters per directed edge — ``ξ⁺`` (crossings that
enter the face to the left of the edge) and ``ξ⁻`` (crossings that leave
it) — whose difference is a proper antisymmetric form.  Integrating that
difference along the boundary chain of a region yields the number of
objects currently inside (Theorem 4.1), and the two-counter split is
what makes repeated exits/re-entries cancel instead of double counting.

Direction convention used across the library: the directed edge
``(u, v)`` denotes the crossing direction *toward* ``v`` — for the
sensing dual edge of a primal (road) edge ``{u, v}`` this is "entering
the sensing face around junction ``v``".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Tuple

from ..errors import QueryError

NodeId = Hashable
DirectedEdge = Tuple[NodeId, NodeId]


def _canonical(edge: DirectedEdge) -> Tuple[DirectedEdge, bool]:
    """Canonical storage key and whether ``edge`` matches its direction."""
    u, v = edge
    ku = (type(u).__name__, repr(u))
    kv = (type(v).__name__, repr(v))
    if ku <= kv:
        return ((u, v), True)
    return ((v, u), False)


@dataclass
class SnapshotForm:
    """The ξ⁺/ξ⁻ crossing-counter pair of Eq. 7, without timestamps.

    ``record(u, v)`` registers one object crossing the sensing edge of
    ``{u, v}`` in the direction toward ``v``.  ``xi_plus((u, v))`` then
    reads the total crossings toward ``v``, ``xi_minus((u, v))`` the
    total toward ``u``, and ``net`` their antisymmetric difference.
    """

    _counts: Dict[DirectedEdge, Tuple[int, int]] = field(default_factory=dict)

    def record(self, u: NodeId, v: NodeId, count: int = 1) -> None:
        """Record ``count`` crossings in direction ``u -> v`` (Eq. 7)."""
        if count < 0:
            raise QueryError("crossing counts cannot be negative")
        key, forward = _canonical((u, v))
        fwd, bwd = self._counts.get(key, (0, 0))
        if forward:
            self._counts[key] = (fwd + count, bwd)
        else:
            self._counts[key] = (fwd, bwd + count)

    def xi_plus(self, edge: DirectedEdge) -> int:
        """Crossings in the direction of ``edge`` (entering its head)."""
        key, forward = _canonical(edge)
        fwd, bwd = self._counts.get(key, (0, 0))
        return fwd if forward else bwd

    def xi_minus(self, edge: DirectedEdge) -> int:
        """Crossings against the direction of ``edge``."""
        return self.xi_plus((edge[1], edge[0]))

    def net(self, edge: DirectedEdge) -> int:
        """``ξ⁺(e) - ξ⁻(e)``; antisymmetric in the edge direction."""
        return self.xi_plus(edge) - self.xi_minus(edge)

    def integrate(self, chain: Iterable[Tuple[DirectedEdge, int]]) -> int:
        """Theorem 4.1: objects inside the region bounded by ``chain``.

        ``chain`` yields ``(directed edge, weight)`` pairs oriented so
        that the region lies at the head side of each edge (the
        convention produced by :func:`repro.planar.region_boundary`
        after orientation resolution, or directly by the query engine).
        """
        return sum(weight * self.net(edge) for edge, weight in chain)

    def integrate_edges(self, edges: Iterable[DirectedEdge]) -> int:
        """Integrate a chain whose weights are all +1."""
        return sum(self.net(edge) for edge in edges)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges that have seen any crossing."""
        return len(self._counts)

"""Maximal disjoint regions (atoms) of a historical query workload.

§4.4.2: overlapping historical query regions are "maximally
partitioned" into disjoint pieces before selection — Fig. 5 shows two
overlapping rectangles split into three disjoint regions.  With query
regions represented as junction sets, the atoms are simply the groups
of junctions sharing the same *containment signature* (the subset of
queries that contain them), split further into connected components so
each atom is a contiguous cell complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..errors import SelectionError
from ..mobility import EXT, MobilityDomain
from ..planar import NodeId, canonical_edge


@dataclass(frozen=True)
class Atom:
    """A maximal disjoint sub-region of the query arrangement.

    ``queries`` are the indices of the historical queries that fully
    contain the atom; ``boundary`` is ``∂σ`` — the canonical sensing
    edges (including EXT geofence edges) crossing the atom's border,
    whose count is the paper's cost ``c(σ) = |∂σ|`` (Eq. 5).
    """

    junctions: FrozenSet[NodeId]
    queries: FrozenSet[int]
    boundary: FrozenSet[Tuple[NodeId, NodeId]]

    @property
    def weight(self) -> int:
        """``ω(σ)``: the number of cells (junction faces) in the atom."""
        return len(self.junctions)

    def utility(self, query_weights: Sequence[int]) -> float:
        """Eq. 6: ``f(σ) = Σ_{Q ⊇ σ} ω(σ) / ω(Q)``."""
        return sum(
            self.weight / query_weights[q] for q in self.queries if query_weights[q]
        )


def overlap_atoms(
    domain: MobilityDomain, query_regions: Sequence[Set[NodeId]]
) -> List[Atom]:
    """Partition the union of query regions into contiguous atoms.

    Junctions outside every query are discarded (they can never improve
    coverage of the historical workload).  Each signature class is
    split into connected components of the road graph so atoms are
    contiguous cell complexes, as required for the boundary cost to be
    meaningful.
    """
    if not query_regions:
        raise SelectionError("query-adaptive selection needs historical queries")
    signature: Dict[NodeId, Set[int]] = {}
    for q_index, region in enumerate(query_regions):
        if EXT in region:
            raise SelectionError("query regions cannot contain EXT")
        for junction in region:
            signature.setdefault(junction, set()).add(q_index)

    # Group junctions by signature, then split into connected pieces.
    by_signature: Dict[FrozenSet[int], Set[NodeId]] = {}
    for junction, queries in signature.items():
        by_signature.setdefault(frozenset(queries), set()).add(junction)

    atoms: List[Atom] = []
    for queries, junctions in by_signature.items():
        for piece in _connected_pieces(domain, junctions):
            atoms.append(
                Atom(
                    junctions=frozenset(piece),
                    queries=queries,
                    boundary=frozenset(_boundary_edges(domain, piece)),
                )
            )
    return atoms


def _connected_pieces(
    domain: MobilityDomain, junctions: Set[NodeId]
) -> List[Set[NodeId]]:
    remaining = set(junctions)
    pieces: List[Set[NodeId]] = []
    while remaining:
        start = next(iter(remaining))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbour in domain.graph.neighbors(node):
                if neighbour in remaining and neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        pieces.append(seen)
        remaining -= seen
    return pieces


def _boundary_edges(
    domain: MobilityDomain, junctions: Set[NodeId]
) -> Set[Tuple[NodeId, NodeId]]:
    edges: Set[Tuple[NodeId, NodeId]] = set()
    for tail, head in domain.inward_boundary_edges(junctions):
        edges.add(canonical_edge(tail, head))
    return edges

"""Unit tests for chains and the boundary operator."""

import pytest

from repro.errors import PlanarityError
from repro.planar import (
    Chain,
    PlanarGraph,
    region_boundary,
    trace_faces,
)


def grid_faces(n=4):
    graph = PlanarGraph()
    for i in range(n):
        for j in range(n):
            graph.add_node((i, j), (float(i), float(j)))
    for i in range(n):
        for j in range(n):
            if i < n - 1:
                graph.add_edge((i, j), (i + 1, j))
            if j < n - 1:
                graph.add_edge((i, j), (i, j + 1))
    return graph, trace_faces(graph)


class TestChain:
    def test_add_and_coefficient(self):
        chain = Chain()
        chain.add(("a", "b"))
        assert chain.coefficient(("a", "b")) == 1
        assert chain.coefficient(("b", "a")) == -1

    def test_opposite_edges_cancel(self):
        chain = Chain()
        chain.add(("a", "b"))
        chain.add(("b", "a"))
        assert len(chain) == 0
        assert chain.coefficient(("a", "b")) == 0

    def test_weighted_add(self):
        chain = Chain()
        chain.add(("a", "b"), 3)
        chain.add(("b", "a"), 1)
        assert chain.coefficient(("a", "b")) == 2

    def test_negative_overshoot_flips_direction(self):
        chain = Chain()
        chain.add(("a", "b"), 1)
        chain.add(("b", "a"), 2)
        assert chain.coefficient(("b", "a")) == 1
        assert chain.coefficient(("a", "b")) == -1

    def test_self_loop_rejected(self):
        with pytest.raises(PlanarityError):
            Chain().add(("a", "a"))

    def test_addition_operator(self):
        left = Chain.from_edges([("a", "b")])
        right = Chain.from_edges([("b", "c")])
        total = left + right
        assert total.coefficient(("a", "b")) == 1
        assert total.coefficient(("b", "c")) == 1

    def test_negation(self):
        chain = Chain.from_edges([("a", "b")])
        negated = -chain
        assert negated.coefficient(("b", "a")) == 1

    def test_nodes(self):
        chain = Chain.from_edges([("a", "b"), ("b", "c")])
        assert chain.nodes() == {"a", "b", "c"}

    def test_cycle_detection(self):
        cycle = Chain.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        assert cycle.is_cycle()
        path = Chain.from_edges([("a", "b"), ("b", "c")])
        assert not path.is_cycle()


class TestFaceBoundary:
    def test_single_face_boundary_is_cycle(self):
        _, faces = grid_faces()
        chain = region_boundary(faces, [faces.interior_faces[0].id])
        assert chain.is_cycle()
        assert len(chain) == 4


class TestRegionBoundary:
    def test_shared_edges_cancel(self):
        _, faces = grid_faces()
        # Two horizontally adjacent unit faces: union boundary = 6 edges.
        target = None
        for a in faces.interior_faces:
            for b in faces.interior_faces:
                shared = set(map(frozenset, (
                    tuple(e) for e in a.boundary_edges()
                ))) & set(map(frozenset, (
                    tuple(e) for e in b.boundary_edges()
                )))
                if a.id < b.id and shared:
                    target = (a.id, b.id)
                    break
            if target:
                break
        assert target is not None
        chain = region_boundary(faces, target)
        assert chain.is_cycle()
        assert len(chain) == 6

    def test_all_interior_faces_boundary_is_outer_cycle(self):
        graph, faces = grid_faces()
        ids = [f.id for f in faces.interior_faces]
        chain = region_boundary(faces, ids)
        # Boundary of everything = the 12 edges of the outer square.
        assert len(chain) == 12
        assert chain.is_cycle()

    def test_perimeter_nodes(self):
        _, faces = grid_faces()
        ids = [f.id for f in faces.interior_faces]
        nodes = region_boundary(faces, ids).nodes()
        # All 12 rim nodes of the 4x4 grid.
        assert len(nodes) == 12

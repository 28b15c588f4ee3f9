"""Unit tests for face tracing (repro.planar.faces)."""

import pytest

from repro.errors import PlanarityError
from repro.planar import (
    PlanarGraph,
    euler_characteristic,
    trace_faces,
)


def make_grid(n: int) -> PlanarGraph:
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
    return graph


class TestGridFaces:
    def test_face_count(self):
        faces = trace_faces(make_grid(4))
        # 3x3 interior cells + outer face.
        assert len(faces.faces) == 10
        assert len(faces.interior_faces) == 9

    def test_euler_characteristic(self):
        graph = make_grid(5)
        assert euler_characteristic(graph, trace_faces(graph)) == 2

    def test_interior_faces_ccw_positive_area(self):
        faces = trace_faces(make_grid(4))
        for face in faces.interior_faces:
            assert face.signed_area == pytest.approx(1.0)

    def test_outer_face_negative_area(self):
        faces = trace_faces(make_grid(4))
        outer = faces.faces[faces.outer_face_id]
        assert outer.is_outer
        assert outer.signed_area == pytest.approx(-9.0)

    def test_total_area_balances(self):
        # Interior areas sum to |outer area|.
        faces = trace_faces(make_grid(6))
        outer = faces.faces[faces.outer_face_id]
        interior = sum(face.area for face in faces.interior_faces)
        assert interior == pytest.approx(-outer.signed_area)

    def test_every_directed_edge_has_a_face(self):
        graph = make_grid(4)
        faces = trace_faces(graph)
        for u, v in graph.edges():
            assert faces.face_of_edge(u, v) is not None
            assert faces.face_of_edge(v, u) is not None

    def test_adjacent_faces_differ_for_interior_edge(self):
        graph = make_grid(4)
        faces = trace_faces(graph)
        left = faces.face_of_edge((1, 1), (2, 1))
        right = faces.face_of_edge((2, 1), (1, 1))
        assert left.id != right.id

    def test_unknown_edge_raises(self):
        faces = trace_faces(make_grid(3))
        with pytest.raises(PlanarityError):
            faces.face_of_edge((0, 0), (99, 99))


class TestBoundaryWalk:
    def test_boundary_edges_close_cycle(self):
        faces = trace_faces(make_grid(3))
        face = faces.interior_faces[0]
        edges = face.boundary_edges()
        assert len(edges) == 4
        heads = [e[1] for e in edges]
        tails = [e[0] for e in edges]
        assert sorted(map(str, heads)) == sorted(map(str, tails))

    def test_interior_point_inside(self):
        faces = trace_faces(make_grid(3))
        for face in faces.interior_faces:
            x, y = face.interior_point()
            box = face.polygon
            assert min(p[0] for p in box) < x < max(p[0] for p in box)

    def test_outer_interior_point_raises(self):
        faces = trace_faces(make_grid(3))
        with pytest.raises(PlanarityError):
            faces.faces[faces.outer_face_id].interior_point()


class TestBridges:
    def test_bridge_edge_same_face_both_sides(self):
        # A triangle with a dangling edge (bridge).
        graph = PlanarGraph.from_edges(
            {0: (0, 0), 1: (2, 0), 2: (1, 2), 3: (3, 2)},
            [(0, 1), (1, 2), (2, 0), (1, 3)],
        )
        faces = trace_faces(graph)
        left, right = faces.face_of_edge(1, 3), faces.face_of_edge(3, 1)
        assert left.id == right.id  # bridge borders the outer face twice
        assert euler_characteristic(graph, faces) == 2

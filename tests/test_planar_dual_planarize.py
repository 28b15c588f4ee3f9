"""Unit tests for dual graphs and planarization."""

import numpy as np
import pytest

from repro.errors import GraphStructureError
from repro.planar import (
    PlanarGraph,
    build_dual,
    largest_component,
    planarize,
    prune_degree_one,
    trace_faces,
)


def grid_graph(n=4):
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


class TestDual:
    def test_node_per_face(self):
        graph = grid_graph()
        faces = trace_faces(graph)
        dual = build_dual(graph, faces)
        assert dual.node_count == len(faces.faces)
        assert len(dual.interior_nodes) == len(faces.interior_faces)

    def test_outer_node_present(self):
        dual = build_dual(grid_graph())
        assert dual.outer_node is not None
        assert dual.outer_node not in dual.interior_nodes

    def test_edge_faces_cover_every_primal_edge(self):
        graph = grid_graph()
        dual = build_dual(graph)
        assert len(dual.edge_faces) == graph.edge_count

    def test_faces_of_primal_edge(self):
        graph = grid_graph()
        dual = build_dual(graph)
        left, right = dual.faces_of_primal_edge((1, 1), (2, 1))
        assert left != right

    def test_unknown_edge_raises(self):
        dual = build_dual(grid_graph())
        with pytest.raises(GraphStructureError):
            dual.faces_of_primal_edge((0, 0), (5, 5))

    def test_dual_positions_inside_faces(self):
        graph = grid_graph()
        faces = trace_faces(graph)
        dual = build_dual(graph, faces)
        for face in faces.interior_faces:
            x, y = dual.position(face.id)
            xs = [p[0] for p in face.polygon]
            ys = [p[1] for p in face.polygon]
            assert min(xs) < x < max(xs)
            assert min(ys) < y < max(ys)

    def test_shortest_path_adjacent(self):
        graph = grid_graph()
        faces = trace_faces(graph)
        dual = build_dual(graph, faces)
        a, b = faces.interior_faces[0].id, faces.interior_faces[1].id
        result = dual.shortest_path(a, b, forbidden={dual.outer_node})
        assert result is not None
        nodes, crossings = result
        assert nodes[0] == a and nodes[-1] == b
        assert len(crossings) == len(nodes) - 1

    def test_shortest_path_respects_forbidden(self):
        graph = grid_graph()
        dual = build_dual(graph)
        interior = dual.interior_nodes
        result = dual.shortest_path(
            interior[0], interior[-1], forbidden={dual.outer_node}
        )
        assert result is not None
        assert dual.outer_node not in result[0]

    def test_forbidden_endpoint_raises(self):
        dual = build_dual(grid_graph())
        interior = dual.interior_nodes
        with pytest.raises(GraphStructureError):
            dual.shortest_path(
                interior[0], interior[1], forbidden={interior[0]}
            )

    def test_same_source_target(self):
        dual = build_dual(grid_graph())
        node = dual.interior_nodes[0]
        assert dual.shortest_path(node, node) == ([node], [])


class TestPlanarize:
    def test_crossing_inserted(self):
        positions = {0: (0, 0), 1: (2, 2), 2: (0, 2), 3: (2, 0)}
        graph = planarize(positions, [(0, 1), (2, 3)])
        # One intersection node added; each edge split in two.
        assert graph.node_count == 5
        assert graph.edge_count == 4

    def test_no_crossings_untouched(self):
        positions = {0: (0, 0), 1: (1, 0), 2: (1, 1)}
        graph = planarize(positions, [(0, 1), (1, 2)])
        assert graph.node_count == 3
        assert graph.edge_count == 2

    def test_shared_endpoint_not_split(self):
        positions = {0: (0, 0), 1: (1, 1), 2: (2, 0)}
        graph = planarize(positions, [(0, 1), (1, 2)])
        assert graph.node_count == 3

    def test_duplicate_edges_collapsed(self):
        positions = {0: (0, 0), 1: (1, 0)}
        graph = planarize(positions, [(0, 1), (1, 0)])
        assert graph.edge_count == 1

    def test_empty_edges(self):
        graph = planarize({0: (0, 0)}, [])
        assert graph.node_count == 1
        assert graph.edge_count == 0

    def test_result_is_traceable(self):
        # After planarization the straight-line drawing has no
        # crossings, so face tracing must close consistently.
        rng = np.random.default_rng(5)
        positions = {i: tuple(rng.uniform(0, 10, 2)) for i in range(12)}
        edges = [(i, (i + 3) % 12) for i in range(12)]
        graph = planarize(positions, edges)
        largest_component(graph)
        prune_degree_one(graph)
        if graph.edge_count >= 3:
            faces = trace_faces(graph)
            assert faces.outer_face_id is not None


class TestPruning:
    def test_prune_degree_one_removes_chains(self):
        graph = grid_graph()
        graph.add_node("stub1", (10, 10))
        graph.add_node("stub2", (11, 11))
        graph.add_edge((3, 3), "stub1")
        graph.add_edge("stub1", "stub2")
        prune_degree_one(graph)
        assert "stub1" not in graph
        assert "stub2" not in graph

    def test_largest_component(self):
        graph = grid_graph()
        graph.add_node("iso1", (20, 20))
        graph.add_node("iso2", (21, 20))
        graph.add_edge("iso1", "iso2")
        largest_component(graph)
        assert "iso1" not in graph
        assert graph.node_count == 16

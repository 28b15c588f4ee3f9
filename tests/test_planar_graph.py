"""Unit tests for repro.planar.graph."""

import math

import pytest

from repro.errors import GraphStructureError
from repro.planar import PlanarGraph, canonical_edge


@pytest.fixture()
def square() -> PlanarGraph:
    graph = PlanarGraph()
    for node, pos in {
        "a": (0, 0),
        "b": (1, 0),
        "c": (1, 1),
        "d": (0, 1),
    }.items():
        graph.add_node(node, pos)
    for u, v in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]:
        graph.add_edge(u, v)
    return graph


class TestConstruction:
    def test_counts(self, square):
        assert square.node_count == 4
        assert square.edge_count == 4

    def test_contains(self, square):
        assert "a" in square
        assert "zz" not in square

    def test_self_loop_rejected(self, square):
        with pytest.raises(GraphStructureError):
            square.add_edge("a", "a")

    def test_edge_to_unknown_node_rejected(self, square):
        with pytest.raises(GraphStructureError):
            square.add_edge("a", "nope")

    def test_duplicate_edge_idempotent(self, square):
        square.add_edge("a", "b")
        assert square.edge_count == 4

    def test_from_edges(self):
        graph = PlanarGraph.from_edges(
            {1: (0, 0), 2: (1, 0)}, [(1, 2)]
        )
        assert 2 in graph.neighbors(1)

    def test_copy_is_independent(self, square):
        clone = square.copy()
        clone.remove_node("a")
        assert "a" in square
        assert "a" not in clone


class TestMutation:
    def test_remove_node_cleans_adjacency(self, square):
        square.remove_node("a")
        assert square.node_count == 3
        assert "a" not in square.neighbors("b")
        assert square.degree("b") == 1

    def test_remove_missing_node_is_noop(self, square):
        square.remove_node("zz")
        assert square.node_count == 4


class TestGeometry:
    def test_position_lookup(self, square):
        assert square.position("c") == (1.0, 1.0)

    def test_position_unknown_raises(self, square):
        with pytest.raises(GraphStructureError):
            square.position("zz")

    def test_edge_length(self, square):
        assert square.edge_length("a", "b") == pytest.approx(1.0)

    def test_bounds(self, square):
        box = square.bounds()
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0, 0, 1, 1)

    def test_bounds_empty_raises(self):
        with pytest.raises(GraphStructureError):
            PlanarGraph().bounds()


class TestRotationSystem:
    def test_rotation_ccw_order(self):
        graph = PlanarGraph()
        graph.add_node("o", (0, 0))
        graph.add_node("e", (1, 0))
        graph.add_node("n", (0, 1))
        graph.add_node("w", (-1, 0))
        graph.add_node("s", (0, -1))
        for nb in "enws":
            graph.add_edge("o", nb)
        rotation = graph.rotation_system()["o"]
        # Sorted by atan2: south (-pi/2), east (0), north (pi/2), west (pi).
        assert rotation == ["s", "e", "n", "w"]

    def test_rotation_cache_invalidation(self, square):
        rotation_before = square.rotation_system()["a"]
        square.add_node("e", (0.5, -1))
        square.add_edge("a", "e")
        assert square.rotation_system()["a"] != rotation_before

    def test_next_face_edge_cycles_triangle(self):
        graph = PlanarGraph.from_edges(
            {0: (0, 0), 1: (1, 0), 2: (0.5, 1)},
            [(0, 1), (1, 2), (2, 0)],
        )
        edge = (0, 1)
        walk = [edge]
        for _ in range(2):
            edge = graph.next_face_edge(*edge)
            walk.append(edge)
        assert graph.next_face_edge(*edge) == (0, 1)
        assert walk == [(0, 1), (1, 2), (2, 0)]


class TestAlgorithms:
    def test_connected_components(self, square):
        square.add_node("island", (5, 5))
        components = square.connected_components()
        assert len(components) == 2

    def test_is_connected(self, square):
        assert square.is_connected()

    def test_shortest_path_direct(self, square):
        assert square.shortest_path("a", "b") == ["a", "b"]

    def test_shortest_path_around(self, square):
        path = square.shortest_path("a", "c")
        assert path is not None
        assert len(path) == 3

    def test_shortest_path_unreachable(self, square):
        square.add_node("island", (5, 5))
        assert square.shortest_path("a", "island") is None

    def test_shortest_path_same_node(self, square):
        assert square.shortest_path("a", "a") == ["a"]

    def test_dijkstra_tree_matches_shortest_path(self, square):
        dist, pred = square.dijkstra_tree("a")
        path = square.path_from_tree("a", "c", pred)
        assert path is not None
        assert dist["c"] == pytest.approx(2.0)
        assert len(path) == 3

    def test_path_from_tree_unreachable(self, square):
        square.add_node("island", (5, 5))
        _, pred = square.dijkstra_tree("a")
        assert square.path_from_tree("a", "island", pred) is None


class TestCanonicalEdge:
    def test_symmetric(self):
        assert canonical_edge(2, 1) == canonical_edge(1, 2)

    def test_mixed_types_total_order(self):
        edge1 = canonical_edge("__ext__", (1, 2))
        edge2 = canonical_edge((1, 2), "__ext__")
        assert edge1 == edge2

"""Unit tests for MobilityDomain (incl. EXT topology)."""

import numpy as np
import pytest

from repro.errors import GraphStructureError, QueryError
from repro.geometry import BBox
from repro.mobility import EXT, MobilityDomain, grid_city
from repro.planar import PlanarGraph, canonical_edge


class TestConstruction:
    def test_rejects_disconnected(self):
        graph = grid_city(rows=4, cols=4, jitter=0.0, drop_fraction=0.0)
        graph.add_node("iso_a", (50, 50))
        graph.add_node("iso_b", (51, 50))
        graph.add_node("iso_c", (50, 51))
        graph.add_edge("iso_a", "iso_b")
        graph.add_edge("iso_b", "iso_c")
        graph.add_edge("iso_c", "iso_a")
        with pytest.raises(GraphStructureError):
            MobilityDomain(graph)

    def test_rejects_tiny(self):
        graph = PlanarGraph.from_edges({0: (0, 0), 1: (1, 0)}, [(0, 1)])
        with pytest.raises(GraphStructureError):
            MobilityDomain(graph)

    def test_counts(self, grid_domain):
        assert grid_domain.junction_count == 49
        assert grid_domain.block_count == 36
        # Sensing edges = roads + one EXT edge per rim junction.
        assert grid_domain.sensing_edge_count == (
            grid_domain.graph.edge_count
            + len(grid_domain.boundary_junctions)
        )


class TestSpatialLookups:
    def test_nearest_junction(self, grid_domain):
        junction = grid_domain.nearest_junction((0.1, 0.1))
        assert grid_domain.position(junction) == (0.0, 0.0)

    def test_junctions_in_bbox(self, grid_domain):
        # Grid spans [0, 10] with 7x7 junctions at spacing 10/6.
        found = grid_domain.junctions_in_bbox(BBox(0, 0, 10 / 6 + 0.01, 10 / 6 + 0.01))
        assert len(found) == 4

    def test_junctions_in_empty_bbox(self, grid_domain):
        assert grid_domain.junctions_in_bbox(BBox(0.1, 0.1, 0.2, 0.2)) == set()


class TestBoundaryTopology:
    def test_boundary_junctions_on_rim(self, grid_domain):
        # 7x7 grid rim: 24 junctions.
        assert len(grid_domain.boundary_junctions) == 24

    def test_entry_path_structure(self, grid_domain):
        center = grid_domain.nearest_junction((5, 5))
        path = grid_domain.entry_path(center)
        assert path[0] == EXT
        assert path[-1] == center
        assert path[1] in grid_domain.boundary_junctions
        # Consecutive non-EXT hops are road edges.
        for a, b in zip(path[1:], path[2:]):
            assert b in grid_domain.graph.neighbors(a)

    def test_entry_path_boundary_junction_is_short(self, grid_domain):
        rim = grid_domain.boundary_junctions[0]
        assert grid_domain.entry_path(rim) == [EXT, rim]

    def test_exit_path_reverses_entry(self, grid_domain):
        center = grid_domain.nearest_junction((5, 5))
        assert grid_domain.exit_path(center) == list(
            reversed(grid_domain.entry_path(center))
        )

    def test_sensing_neighbors_include_ext_on_rim(self, grid_domain):
        rim = grid_domain.boundary_junctions[0]
        assert EXT in grid_domain.sensing_neighbors(rim)

    def test_sensing_neighbors_interior_excludes_ext(self, grid_domain):
        center = grid_domain.nearest_junction((5, 5))
        assert EXT not in grid_domain.sensing_neighbors(center)

    def test_sensing_neighbors_of_ext(self, grid_domain):
        assert grid_domain.sensing_neighbors(EXT) == set(
            grid_domain.boundary_junctions
        )


class TestBoundaryChain:
    def test_inward_boundary_of_interior_region(self, grid_domain):
        center = grid_domain.nearest_junction((5, 5))
        chain = grid_domain.inward_boundary_edges({center})
        assert all(head == center for _, head in chain)
        assert len(chain) == grid_domain.graph.degree(center)

    def test_inward_boundary_includes_ext_for_rim_region(self, grid_domain):
        rim = grid_domain.boundary_junctions[0]
        chain = grid_domain.inward_boundary_edges({rim})
        assert (EXT, rim) in chain

    def test_internal_edges_excluded(self, grid_domain):
        a = grid_domain.nearest_junction((5, 5))
        neighbours = grid_domain.graph.neighbors(a)
        b = next(iter(neighbours))
        chain = grid_domain.inward_boundary_edges({a, b})
        assert (a, b) not in chain and (b, a) not in chain

    def test_region_with_ext_rejected(self, grid_domain):
        with pytest.raises(QueryError):
            grid_domain.inward_boundary_edges({EXT})

    def test_sensing_edges_enumeration(self, grid_domain):
        edges = list(grid_domain.sensing_edges())
        assert len(edges) == grid_domain.sensing_edge_count
        ext_edges = [e for e in edges if EXT in e]
        assert len(ext_edges) == len(grid_domain.boundary_junctions)

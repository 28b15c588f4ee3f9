"""Unit tests for Delaunay triangulation and SpatialGrid."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import (
    BBox,
    SpatialGrid,
    delaunay_edges,
)


class TestDelaunay:
    def test_two_points_single_edge(self):
        assert delaunay_edges([(0, 0), (1, 1)]) == [(0, 1)]

    def test_triangle(self):
        edges = delaunay_edges([(0, 0), (1, 0), (0.5, 1)])
        assert sorted(edges) == [(0, 1), (0, 2), (1, 2)]

    def test_square_has_five_edges(self):
        # 4 sides + 1 diagonal.
        edges = delaunay_edges([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert len(edges) == 5

    def test_collinear_fallback_path(self):
        edges = delaunay_edges([(0, 0), (1, 0), (2, 0), (3, 0)])
        assert edges == [(0, 1), (1, 2), (2, 3)]

    def test_single_point_raises(self):
        with pytest.raises(GeometryError):
            delaunay_edges([(0, 0)])

    def test_edge_count_bound(self):
        # Planar graph: at most 3n - 6 edges.
        rng = np.random.default_rng(2)
        pts = [tuple(p) for p in rng.uniform(0, 10, size=(50, 2))]
        edges = delaunay_edges(pts)
        assert len(edges) <= 3 * 50 - 6


class TestSpatialGrid:
    def test_query_bbox_no_false_negatives(self):
        grid: SpatialGrid = SpatialGrid(BBox(0, 0, 10, 10), 0.7)
        rng = np.random.default_rng(3)
        boxes = []
        for index in range(100):
            x, y = rng.uniform(0, 9, 2)
            box = BBox(x, y, x + rng.uniform(0.1, 1), y + rng.uniform(0.1, 1))
            boxes.append(box)
            grid.insert(index, box)
        probe = BBox(2, 2, 5, 5)
        found = grid.query_bbox(probe)
        expected = {
            i for i, b in enumerate(boxes)
            if b.min_x <= probe.max_x and probe.min_x <= b.max_x
            and b.min_y <= probe.max_y and probe.min_y <= b.max_y
        }
        assert expected <= found

    def test_len_counts_items_not_cells(self):
        grid: SpatialGrid = SpatialGrid(BBox(0, 0, 10, 10), 1.0)
        grid.insert("wide", BBox(0, 0, 9, 9))
        assert len(grid) == 1

    def test_invalid_cell_size(self):
        with pytest.raises(GeometryError):
            SpatialGrid(BBox(0, 0, 1, 1), 0.0)

    def test_for_items_sizing(self):
        grid: SpatialGrid = SpatialGrid.for_items(BBox(0, 0, 10, 10), 100)
        assert grid.cell_size > 0

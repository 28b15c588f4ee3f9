"""Unit tests for repro.geometry.bbox."""

import math

import pytest

from repro.errors import GeometryError
from repro.geometry import BBox


class TestConstruction:
    def test_inverted_rejected(self):
        with pytest.raises(GeometryError):
            BBox(2, 0, 1, 1)
        for corner in range(4):
            coords = [0.0, 0.0, 1.0, 1.0]
            coords[corner] = math.nan
            with pytest.raises(GeometryError, match="NaN"):
                BBox(*coords)
        BBox(-math.inf, -math.inf, math.inf, math.inf)  # still a box

    def test_from_points(self):
        box = BBox.from_points([(1, 5), (3, 2), (0, 4)])
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0, 2, 3, 5)

    def test_from_points_empty(self):
        with pytest.raises(GeometryError):
            BBox.from_points([])

    def test_from_center(self):
        box = BBox.from_center((5, 5), 4, 2)
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (3, 4, 7, 6)

    def test_from_center_negative_rejected(self):
        with pytest.raises(GeometryError):
            BBox.from_center((0, 0), -1, 1)


class TestProperties:
    def test_dimensions(self):
        box = BBox(0, 0, 4, 3)
        assert box.width == 4
        assert box.height == 3
        assert box.area == 12
        assert box.center == (2.0, 1.5)

    def test_iter_unpacking(self):
        min_x, min_y, max_x, max_y = BBox(1, 2, 3, 4)
        assert (min_x, min_y, max_x, max_y) == (1, 2, 3, 4)

"""Unit tests for repro.geometry.polygon."""

import pytest

from repro.errors import GeometryError
from repro.geometry import (
    area,
    centroid,
    perimeter,
    point_in_polygon,
    representative_point,
    signed_area,
)

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
TRIANGLE = [(0, 0), (4, 0), (0, 3)]
# An L-shape whose centroid lies inside; concave.
L_SHAPE = [(0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3)]
# A U-shape whose centroid falls in the notch (outside the polygon).
U_SHAPE = [(0, 0), (5, 0), (5, 4), (4, 4), (4, 1), (1, 1), (1, 4), (0, 4)]


class TestArea:
    def test_signed_area_ccw_positive(self):
        assert signed_area(UNIT_SQUARE) == pytest.approx(1.0)

    def test_signed_area_cw_negative(self):
        assert signed_area(list(reversed(UNIT_SQUARE))) == pytest.approx(-1.0)

    def test_area_triangle(self):
        assert area(TRIANGLE) == pytest.approx(6.0)

    def test_degenerate(self):
        assert signed_area([(0, 0), (1, 1)]) == 0.0


class TestCentroid:
    def test_square_centroid(self):
        assert centroid(UNIT_SQUARE) == pytest.approx((0.5, 0.5))

    def test_triangle_centroid(self):
        assert centroid(TRIANGLE) == pytest.approx((4 / 3, 1.0))

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            centroid([])


class TestPointInPolygon:
    def test_interior(self):
        assert point_in_polygon((0.5, 0.5), UNIT_SQUARE)

    def test_exterior(self):
        assert not point_in_polygon((2, 2), UNIT_SQUARE)

    def test_boundary_edge(self):
        assert point_in_polygon((0.5, 0), UNIT_SQUARE)

    def test_vertex(self):
        assert point_in_polygon((0, 0), UNIT_SQUARE)

    def test_concave_notch_excluded(self):
        assert not point_in_polygon((2.5, 2.5), U_SHAPE)

    def test_concave_arm_included(self):
        assert point_in_polygon((0.5, 3.5), U_SHAPE)


class TestRepresentativePoint:
    def test_convex_uses_centroid(self):
        assert representative_point(UNIT_SQUARE) == pytest.approx((0.5, 0.5))

    def test_concave_point_still_inside(self):
        point = representative_point(U_SHAPE)
        assert point_in_polygon(point, U_SHAPE)

    def test_l_shape_inside(self):
        point = representative_point(L_SHAPE)
        assert point_in_polygon(point, L_SHAPE)

    def test_degenerate_raises(self):
        with pytest.raises(GeometryError):
            representative_point([(0, 0), (1, 1)])


class TestPerimeter:
    def test_unit_square(self):
        assert perimeter(UNIT_SQUARE) == pytest.approx(4.0)

    def test_triangle(self):
        assert perimeter(TRIANGLE) == pytest.approx(12.0)

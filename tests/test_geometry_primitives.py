"""Unit tests for repro.geometry.primitives."""

import pytest

from repro.errors import GeometryError
from repro.geometry import (
    Segment,
    distance,
    lerp,
    midpoint,
    points_equal,
)


class TestScalarHelpers:
    def test_points_equal(self):
        assert points_equal((1.0, 2.0), (1.0 + 1e-12, 2.0))
        assert not points_equal((1.0, 2.0), (1.1, 2.0))


class TestDistances:
    def test_distance_pythagorean(self):
        assert distance((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_distance_zero(self):
        assert distance((2, 2), (2, 2)) == 0.0


class TestInterpolation:
    def test_midpoint(self):
        assert midpoint((0, 0), (2, 4)) == (1.0, 2.0)

    def test_lerp_endpoints(self):
        assert lerp((0, 0), (10, 10), 0.0) == (0.0, 0.0)
        assert lerp((0, 0), (10, 10), 1.0) == (10.0, 10.0)

    def test_lerp_middle(self):
        assert lerp((0, 0), (10, 20), 0.5) == (5.0, 10.0)


class TestSegment:
    def test_degenerate_segment_rejected(self):
        with pytest.raises(GeometryError):
            Segment((1, 1), (1, 1))

    def test_midpoint_property(self):
        assert Segment((0, 0), (4, 6)).midpoint == (2.0, 3.0)

    def test_bounding_box_ordering(self):
        seg = Segment((5, 1), (2, 7))
        assert seg.bounding_box() == (2, 1, 5, 7)

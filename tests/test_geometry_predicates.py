"""Unit tests for repro.geometry.predicates."""

import pytest

from repro.geometry import (
    Segment,
    collinear,
    cross,
    on_segment,
    orientation,
    proper_intersection,
    segment_intersection,
)


class TestOrientation:
    def test_counter_clockwise(self):
        assert orientation((0, 0), (1, 0), (1, 1)) == 1

    def test_clockwise(self):
        assert orientation((0, 0), (1, 1), (1, 0)) == -1

    def test_collinear(self):
        assert orientation((0, 0), (1, 1), (2, 2)) == 0

    def test_collinear_helper(self):
        assert collinear((0, 0), (2, 2), (5, 5))
        assert not collinear((0, 0), (2, 2), (5, 6))

    def test_cross_sign(self):
        assert cross((0, 0), (1, 0), (0, 1)) > 0
        assert cross((0, 0), (0, 1), (1, 0)) < 0

    def test_orientation_scale_invariance(self):
        # The tolerance scales with magnitude; large coordinates with a
        # genuine turn must not be classified collinear.
        assert orientation((1000, 1000), (2000, 1000), (2000, 1001)) == 1


class TestOnSegment:
    def test_midpoint_on_segment(self):
        assert on_segment((1, 1), Segment((0, 0), (2, 2)))

    def test_endpoint_on_segment(self):
        assert on_segment((0, 0), Segment((0, 0), (2, 2)))

    def test_collinear_but_outside(self):
        assert not on_segment((3, 3), Segment((0, 0), (2, 2)))

    def test_off_line(self):
        assert not on_segment((1, 0), Segment((0, 0), (2, 2)))


class TestSegmentIntersection:
    def test_crossing_point(self):
        point = segment_intersection(
            Segment((0, 0), (2, 2)), Segment((0, 2), (2, 0))
        )
        assert point == pytest.approx((1.0, 1.0))

    def test_none_for_disjoint(self):
        assert (
            segment_intersection(
                Segment((0, 0), (1, 0)), Segment((0, 1), (1, 1))
            )
            is None
        )

    def test_parallel_non_collinear(self):
        assert (
            segment_intersection(
                Segment((0, 0), (2, 0)), Segment((0, 1), (2, 1))
            )
            is None
        )

    def test_collinear_overlap_returns_shared_point(self):
        point = segment_intersection(
            Segment((0, 0), (2, 0)), Segment((1, 0), (3, 0))
        )
        assert point is not None
        assert on_segment(point, Segment((1, 0), (2, 0)))


class TestProperIntersection:
    def test_interior_crossing_found(self):
        point = proper_intersection(
            Segment((0, 0), (2, 2)), Segment((0, 2), (2, 0))
        )
        assert point == pytest.approx((1.0, 1.0))

    def test_shared_endpoint_excluded(self):
        assert (
            proper_intersection(
                Segment((0, 0), (1, 1)), Segment((1, 1), (2, 0))
            )
            is None
        )

    def test_endpoint_touch_excluded(self):
        assert (
            proper_intersection(
                Segment((0, 0), (2, 0)), Segment((1, 0), (1, 1))
            )
            is None
        )

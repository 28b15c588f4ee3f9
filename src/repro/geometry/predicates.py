"""Planar geometric predicates: orientation, collinearity, intersection.

These are the robust building blocks for face extraction, crossing
detection and planarization.  Orientation uses the standard signed-area
determinant with a tolerance scaled to the magnitude of the operands,
which is adequate because all coordinates in the library live in a
normalised unit-scale domain.
"""

from __future__ import annotations

from typing import Optional

from .primitives import EPSILON, Point, Segment, points_equal


def cross(o: Point, a: Point, b: Point) -> float:
    """Z-component of the cross product ``(a - o) x (b - o)``.

    Positive when ``o -> a -> b`` turns counter-clockwise.
    """
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def orientation(o: Point, a: Point, b: Point, eps: float = EPSILON) -> int:
    """Orientation of the ordered triple ``(o, a, b)``.

    Returns ``+1`` for counter-clockwise, ``-1`` for clockwise and ``0``
    for (numerically) collinear points.
    """
    value = cross(o, a, b)
    scale = max(
        abs(a[0] - o[0]) + abs(a[1] - o[1]),
        abs(b[0] - o[0]) + abs(b[1] - o[1]),
        1.0,
    )
    if abs(value) <= eps * scale:
        return 0
    return 1 if value > 0 else -1


def collinear(o: Point, a: Point, b: Point, eps: float = EPSILON) -> bool:
    """True when the three points are numerically collinear."""
    return orientation(o, a, b, eps) == 0


def on_segment(p: Point, segment: Segment, eps: float = EPSILON) -> bool:
    """True when point ``p`` lies on ``segment`` (endpoints inclusive)."""
    a, b = segment.start, segment.end
    if orientation(a, b, p, eps) != 0:
        return False
    min_x, min_y, max_x, max_y = segment.bounding_box()
    return (
        min_x - eps <= p[0] <= max_x + eps
        and min_y - eps <= p[1] <= max_y + eps
    )


def segment_intersection(
    s1: Segment, s2: Segment, eps: float = EPSILON
) -> Optional[Point]:
    """Intersection point of two segments, or None.

    For properly crossing segments the unique intersection point is
    returned.  For collinear overlapping segments one representative
    shared point is returned (an endpoint inside the overlap).  Touching
    at an endpoint counts as an intersection.
    """
    p, r_end = s1.start, s1.end
    q, s_end = s2.start, s2.end
    r = (r_end[0] - p[0], r_end[1] - p[1])
    s = (s_end[0] - q[0], s_end[1] - q[1])
    denom = r[0] * s[1] - r[1] * s[0]
    qp = (q[0] - p[0], q[1] - p[1])

    if abs(denom) > eps:
        t = (qp[0] * s[1] - qp[1] * s[0]) / denom
        u = (qp[0] * r[1] - qp[1] * r[0]) / denom
        if -eps <= t <= 1 + eps and -eps <= u <= 1 + eps:
            t = min(max(t, 0.0), 1.0)
            return (p[0] + t * r[0], p[1] + t * r[1])
        return None

    # Parallel.  Check for collinear overlap.
    if abs(qp[0] * r[1] - qp[1] * r[0]) > eps:
        return None
    for candidate in (s2.start, s2.end):
        if on_segment(candidate, s1, eps):
            return candidate
    for candidate in (s1.start, s1.end):
        if on_segment(candidate, s2, eps):
            return candidate
    return None


def proper_intersection(
    s1: Segment, s2: Segment, eps: float = EPSILON
) -> Optional[Point]:
    """Intersection strictly interior to both segments, or None.

    Used by planarization, where shared endpoints are already graph
    nodes and must not spawn duplicate intersection vertices.
    """
    point = segment_intersection(s1, s2, eps)
    if point is None:
        return None
    for endpoint in (s1.start, s1.end, s2.start, s2.end):
        if points_equal(point, endpoint, eps * 10):
            return None
    return point



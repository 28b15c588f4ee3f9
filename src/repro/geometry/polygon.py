"""Simple-polygon operations: area, centroid, containment.

Faces of the planar sensing graph are simple polygons; these routines
support query-region construction (lower/upper bound face selection) and
the utility function of the submodular selector (which weighs regions by
area).
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import GeometryError
from .primitives import EPSILON, Point, Segment, points_equal
from .predicates import on_segment


def signed_area(vertices: Sequence[Point]) -> float:
    """Signed area of a polygon (positive for counter-clockwise order).

    Uses the shoelace formula; the polygon is implicitly closed.
    """
    if len(vertices) < 3:
        return 0.0
    total = 0.0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2.0


def area(vertices: Sequence[Point]) -> float:
    """Absolute area of a polygon."""
    return abs(signed_area(vertices))


def centroid(vertices: Sequence[Point]) -> Point:
    """Area centroid of a simple polygon.

    Falls back to the vertex mean for (near-)degenerate polygons.
    """
    if not vertices:
        raise GeometryError("centroid of an empty polygon")
    a = signed_area(vertices)
    if abs(a) < EPSILON:
        xs = sum(v[0] for v in vertices) / len(vertices)
        ys = sum(v[1] for v in vertices) / len(vertices)
        return (xs, ys)
    cx = 0.0
    cy = 0.0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        factor = x1 * y2 - x2 * y1
        cx += (x1 + x2) * factor
        cy += (y1 + y2) * factor
    return (cx / (6.0 * a), cy / (6.0 * a))


def point_in_polygon(
    point: Point, vertices: Sequence[Point], eps: float = EPSILON
) -> bool:
    """True when ``point`` is inside the polygon (boundary inclusive).

    Standard ray-casting with an explicit boundary check first so that
    points exactly on an edge are classified deterministically.
    """
    n = len(vertices)
    if n < 3:
        return False
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        if points_equal(a, b, eps):
            continue
        if on_segment(point, Segment(a, b), eps):
            return True

    x, y = point
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = vertices[i]
        xj, yj = vertices[j]
        if (yi > y) != (yj > y):
            x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def representative_point(vertices: Sequence[Point]) -> Point:
    """A point guaranteed to lie inside the polygon.

    The centroid is returned when it is interior (true for convex and
    most mildly non-convex faces).  Otherwise the midpoint of the widest
    interior run of a horizontal scanline through the polygon's vertical
    midde is used, which always lies strictly inside a simple polygon.
    """
    if len(vertices) < 3:
        raise GeometryError("representative point of a degenerate polygon")
    candidate = centroid(vertices)
    if point_in_polygon(candidate, vertices):
        return candidate

    ys = sorted(v[1] for v in vertices)
    mid_y = (ys[len(ys) // 2 - 1] + ys[len(ys) // 2]) / 2.0
    if any(abs(v[1] - mid_y) < EPSILON for v in vertices):
        mid_y += EPSILON * 7  # nudge off vertex level to avoid degeneracy

    crossings: List[float] = []
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        if (y1 > mid_y) != (y2 > mid_y):
            crossings.append(x1 + (x2 - x1) * (mid_y - y1) / (y2 - y1))
    crossings.sort()
    if len(crossings) < 2:
        return candidate  # fall back; polygon is nearly degenerate
    best = (crossings[0], crossings[1])
    for i in range(0, len(crossings) - 1, 2):
        if crossings[i + 1] - crossings[i] > best[1] - best[0]:
            best = (crossings[i], crossings[i + 1])
    return ((best[0] + best[1]) / 2.0, mid_y)


def perimeter(vertices: Sequence[Point]) -> float:
    """Total boundary length of the polygon."""
    from .primitives import distance

    n = len(vertices)
    return sum(distance(vertices[i], vertices[(i + 1) % n]) for i in range(n))

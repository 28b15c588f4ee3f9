"""Basic geometric primitives: points, segments and distances.

Points are plain ``(x, y)`` tuples of floats throughout the library; the
:class:`Point` alias documents intent.  A light-weight :class:`Segment`
wrapper carries the pair of endpoints together with convenience methods
used by the planar-graph and crossing-detection code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..errors import GeometryError

Point = Tuple[float, float]

#: Tolerance used by approximate geometric comparisons.  Coordinates in
#: this library are normalised to roughly unit scale, so an absolute
#: epsilon is appropriate.
EPSILON = 1e-9


def points_equal(p: Point, q: Point, eps: float = EPSILON) -> bool:
    """Return True when two points coincide within ``eps`` per coordinate."""
    return abs(p[0] - q[0]) < eps and abs(p[1] - q[1]) < eps


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def midpoint(p: Point, q: Point) -> Point:
    """Midpoint of the segment ``pq``."""
    return ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)


def lerp(p: Point, q: Point, t: float) -> Point:
    """Linear interpolation between ``p`` (t=0) and ``q`` (t=1)."""
    return (p[0] + (q[0] - p[0]) * t, p[1] + (q[1] - p[1]) * t)


@dataclass(frozen=True)
class Segment:
    """A directed line segment between two points.

    The direction matters for crossing-sign computations: a moving object
    crossing the segment from its left half-plane to its right half-plane
    has a positive crossing sign.
    """

    start: Point
    end: Point

    def __post_init__(self) -> None:
        if points_equal(self.start, self.end):
            raise GeometryError(
                f"degenerate segment: both endpoints are {self.start}"
            )

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """``(min_x, min_y, max_x, max_y)`` of the segment."""
        (x1, y1), (x2, y2) = self.start, self.end
        return (min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))

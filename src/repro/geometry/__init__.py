"""Planar geometry substrate (system S1 in DESIGN.md).

Pure-Python/numpy computational geometry used throughout the library:
points and segments, robust-enough predicates, simple-polygon operations,
axis-aligned boxes and Delaunay triangulation.
"""

from .bbox import BBox
from .polygon import (
    area,
    centroid,
    perimeter,
    point_in_polygon,
    representative_point,
    signed_area,
)
from .grid import SpatialGrid
from .predicates import (
    collinear,
    cross,
    on_segment,
    orientation,
    proper_intersection,
    segment_intersection,
)
from .primitives import (
    EPSILON,
    Point,
    Segment,
    distance,
    lerp,
    midpoint,
    points_equal,
)
from .triangulate import delaunay_edges

__all__ = [
    "BBox",
    "EPSILON",
    "Point",
    "Segment",
    "area",
    "centroid",
    "collinear",
    "cross",
    "delaunay_edges",
    "distance",
    "lerp",
    "midpoint",
    "on_segment",
    "orientation",
    "perimeter",
    "point_in_polygon",
    "points_equal",
    "proper_intersection",
    "representative_point",
    "SpatialGrid",
    "segment_intersection",
    "signed_area",
]

"""Planar geometry substrate (system S1 in DESIGN.md).

Pure-Python/numpy computational geometry used throughout the library:
points and segments, robust-enough predicates, simple-polygon operations,
axis-aligned boxes and Delaunay triangulation.
"""

from .bbox import BBox
from .polygon import (
    area,
    centroid,
    ensure_counter_clockwise,
    is_convex,
    is_counter_clockwise,
    perimeter,
    point_in_polygon,
    polygon_in_bbox,
    polygon_intersects_bbox,
    representative_point,
    signed_area,
)
from .grid import SpatialGrid
from .predicates import (
    collinear,
    cross,
    crossing_parameter,
    on_segment,
    orientation,
    proper_intersection,
    segment_intersection,
    segments_intersect,
)
from .primitives import (
    EPSILON,
    Point,
    Segment,
    almost_equal,
    angle_of,
    distance,
    lerp,
    midpoint,
    points_equal,
    polyline_length,
    squared_distance,
)
from .triangulate import delaunay_edges, delaunay_triangles

__all__ = [
    "BBox",
    "EPSILON",
    "Point",
    "Segment",
    "almost_equal",
    "angle_of",
    "area",
    "centroid",
    "collinear",
    "cross",
    "crossing_parameter",
    "delaunay_edges",
    "delaunay_triangles",
    "distance",
    "ensure_counter_clockwise",
    "is_convex",
    "is_counter_clockwise",
    "lerp",
    "midpoint",
    "on_segment",
    "orientation",
    "perimeter",
    "point_in_polygon",
    "points_equal",
    "polygon_in_bbox",
    "polygon_intersects_bbox",
    "polyline_length",
    "proper_intersection",
    "representative_point",
    "SpatialGrid",
    "segment_intersection",
    "segments_intersect",
    "signed_area",
    "squared_distance",
]

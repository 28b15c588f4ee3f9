"""Delaunay triangulation of a point set.

The sampled-graph generator (§4.5 of the paper) connects selected sensor
nodes "either with a triangulation-based or k-NN-based algorithm"; the
triangulation used here is Delaunay, delegated to ``scipy.spatial`` with
a small pure-Python fallback for environments without scipy and for the
degenerate inputs scipy's Qhull rejects (fewer than 3 points, collinear
point sets).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

import numpy as np

from ..errors import GeometryError
from .primitives import Point

try:  # scipy is a declared dependency but keep a graceful fallback
    from scipy.spatial import Delaunay as _SciPyDelaunay
    from scipy.spatial import QhullError as _QhullError
except ImportError:  # pragma: no cover - scipy is installed in CI
    _SciPyDelaunay = None

    class _QhullError(Exception):
        pass


def delaunay_edges(points: Sequence[Point]) -> List[Tuple[int, int]]:
    """Edges of the Delaunay triangulation as index pairs ``(i, j)``, i < j.

    Degenerate inputs degrade gracefully: two points yield the single
    edge, collinear sets yield a path along the sorted order.
    """
    n = len(points)
    if n < 2:
        raise GeometryError("triangulation requires at least two points")
    if n == 2:
        return [(0, 1)]

    if _SciPyDelaunay is not None:
        try:
            tri = _SciPyDelaunay(np.asarray(points, dtype=float))
        except (_QhullError, ValueError):
            return _collinear_path_edges(points)
        edges: Set[Tuple[int, int]] = set()
        for simplex in tri.simplices:
            a, b, c = (int(v) for v in simplex)
            edges.add((min(a, b), max(a, b)))
            edges.add((min(b, c), max(b, c)))
            edges.add((min(a, c), max(a, c)))
        return sorted(edges)

    return _bowyer_watson_edges(points)  # pragma: no cover


def _collinear_path_edges(points: Sequence[Point]) -> List[Tuple[int, int]]:
    """Chain edges along a (numerically) collinear point set."""
    order = sorted(range(len(points)), key=lambda i: (points[i][0], points[i][1]))
    edges = []
    for a, b in zip(order, order[1:]):
        edges.append((min(a, b), max(a, b)))
    return edges


def _bowyer_watson_edges(
    points: Sequence[Point],
) -> List[Tuple[int, int]]:  # pragma: no cover - fallback path
    """O(n^2) Bowyer-Watson Delaunay for the no-scipy fallback."""
    pts = [(float(x), float(y)) for x, y in points]
    min_x = min(p[0] for p in pts)
    max_x = max(p[0] for p in pts)
    min_y = min(p[1] for p in pts)
    max_y = max(p[1] for p in pts)
    span = max(max_x - min_x, max_y - min_y, 1.0)
    # Super-triangle far outside the point set.
    s1 = (min_x - 10 * span, min_y - span)
    s2 = (max_x + 10 * span, min_y - span)
    s3 = ((min_x + max_x) / 2, max_y + 10 * span)
    all_pts = pts + [s1, s2, s3]
    n = len(pts)
    triangles = {(n, n + 1, n + 2)}

    def circumcircle_contains(tri, p):
        ax, ay = all_pts[tri[0]]
        bx, by = all_pts[tri[1]]
        cx, cy = all_pts[tri[2]]
        d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        if abs(d) < 1e-12:
            return False
        ux = (
            (ax * ax + ay * ay) * (by - cy)
            + (bx * bx + by * by) * (cy - ay)
            + (cx * cx + cy * cy) * (ay - by)
        ) / d
        uy = (
            (ax * ax + ay * ay) * (cx - bx)
            + (bx * bx + by * by) * (ax - cx)
            + (cx * cx + cy * cy) * (bx - ax)
        ) / d
        r2 = (ax - ux) ** 2 + (ay - uy) ** 2
        return (p[0] - ux) ** 2 + (p[1] - uy) ** 2 < r2

    for idx in range(n):
        p = all_pts[idx]
        bad = [t for t in triangles if circumcircle_contains(t, p)]
        boundary: Set[Tuple[int, int]] = set()
        for t in bad:
            for e in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2])):
                e = (min(e), max(e))
                if e in boundary:
                    boundary.discard(e)
                else:
                    boundary.add(e)
            triangles.discard(t)
        for a, b in boundary:
            triangles.add(tuple(sorted((a, b, idx))))

    edges: Set[Tuple[int, int]] = set()
    for t in triangles:
        if any(v >= n for v in t):
            continue
        edges.add((t[0], t[1]))
        edges.add((t[1], t[2]))
        edges.add((t[0], t[2]))
    return sorted(edges)

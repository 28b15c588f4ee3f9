"""Axis-aligned bounding boxes.

Used to express rectangular spatial query ranges (§5.1.5 of the paper)
and as a cheap filter before exact polygon tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import GeometryError
from .primitives import Point


@dataclass(frozen=True)
class BBox:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        # Written so that a NaN coordinate fails the test too.
        if not (self.min_x <= self.max_x and self.min_y <= self.max_y):
            raise GeometryError(
                f"inverted or NaN bbox: ({self.min_x}, {self.min_y}, "
                f"{self.max_x}, {self.max_y})"
            )

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "BBox":
        """Smallest bbox containing every point; raises on empty input."""
        iterator = iter(points)
        try:
            first = next(iterator)
        except StopIteration:
            raise GeometryError("cannot build a bbox from zero points")
        min_x = max_x = first[0]
        min_y = max_y = first[1]
        for x, y in iterator:
            min_x = min(min_x, x)
            max_x = max(max_x, x)
            min_y = min(min_y, y)
            max_y = max(max_y, y)
        return cls(min_x, min_y, max_x, max_y)

    @classmethod
    def from_center(cls, center: Point, width: float, height: float) -> "BBox":
        """Bbox of the given dimensions centred on ``center``."""
        if width < 0 or height < 0:
            raise GeometryError("bbox dimensions must be non-negative")
        cx, cy = center
        return cls(cx - width / 2, cy - height / 2, cx + width / 2, cy + height / 2)

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return ((self.min_x + self.max_x) / 2, (self.min_y + self.max_y) / 2)

    def __iter__(self) -> Iterator[float]:
        yield self.min_x
        yield self.min_y
        yield self.max_x
        yield self.max_y

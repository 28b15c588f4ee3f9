"""Uniform spatial hash grid for bbox-indexed items.

A tiny, dependency-free spatial index.  The library indexes road
segments with it (segment-crossing candidate lookup while a road
network is planarized).  Items are registered with a bounding box and
retrieved by probe bbox; exact geometry tests are the caller's
responsibility.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Generic, Iterable, List, Set, Tuple, TypeVar

from ..errors import GeometryError
from .bbox import BBox
from .primitives import Point

T = TypeVar("T")


class SpatialGrid(Generic[T]):
    """Hash grid over a rectangular domain.

    Parameters
    ----------
    bounds:
        The domain every inserted item is expected to (mostly) live in.
        Items may spill outside; cells are unbounded integer keys.
    cell_size:
        Edge length of the square cells.  A good default is the domain
        diagonal divided by ``sqrt(expected_item_count)``.
    """

    def __init__(self, bounds: BBox, cell_size: float) -> None:
        if cell_size <= 0:
            raise GeometryError("cell_size must be positive")
        self.bounds = bounds
        self.cell_size = float(cell_size)
        self._cells: Dict[Tuple[int, int], List[T]] = defaultdict(list)
        self._count = 0

    @classmethod
    def for_items(cls, bounds: BBox, expected_items: int) -> "SpatialGrid[T]":
        """Grid sized so that cells hold O(1) items on average."""
        expected_items = max(expected_items, 1)
        diag = math.hypot(bounds.width, bounds.height)
        cell = max(diag / math.sqrt(expected_items), 1e-6)
        return cls(bounds, cell)

    def __len__(self) -> int:
        return self._count

    def _cells_for_bbox(self, box: BBox) -> Iterable[Tuple[int, int]]:
        cx0 = int(math.floor(box.min_x / self.cell_size))
        cy0 = int(math.floor(box.min_y / self.cell_size))
        cx1 = int(math.floor(box.max_x / self.cell_size))
        cy1 = int(math.floor(box.max_y / self.cell_size))
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                yield (cx, cy)

    def insert(self, item: T, box: BBox) -> None:
        """Register ``item`` under every cell its bbox overlaps."""
        for key in self._cells_for_bbox(box):
            self._cells[key].append(item)
        self._count += 1

    def query_bbox(self, box: BBox) -> Set[T]:
        """All items whose registration bbox overlaps ``box``'s cells.

        May contain false positives (same cell, disjoint geometry);
        never false negatives.
        """
        found: Set[T] = set()
        for key in self._cells_for_bbox(box):
            cell = self._cells.get(key)
            if cell:
                found.update(cell)
        return found

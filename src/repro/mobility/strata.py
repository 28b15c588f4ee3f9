"""Strata (districts) for stratified sensor sampling (§4.3).

The paper stratifies Beijing by district; synthetically we partition the
domain into Voronoi districts of random seed points (or a regular grid
of rectangular districts).  Assignment is nearest-seed, area weights are
estimated on a dense sample grid — both exactly what the stratified
sampler needs: a label per candidate sensor and a per-stratum weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..errors import SelectionError
from ..geometry import BBox, Point


@dataclass
class Strata:
    """A labelled partition of the spatial domain.

    ``seeds`` are district centres; point assignment is nearest-seed
    (a Voronoi partition).  ``area_weights`` sums to 1 and drives the
    per-stratum sample allocation function of §4.3 ("the number of
    samples based on the area of each stratum").
    """

    seeds: np.ndarray
    bounds: BBox
    area_weights: np.ndarray

    @property
    def count(self) -> int:
        return len(self.seeds)

    def assign(self, points: Sequence[Point]) -> np.ndarray:
        """Stratum index for each point (nearest district seed)."""
        from scipy.spatial import cKDTree

        if len(points) == 0:
            return np.zeros(0, dtype=int)
        _, labels = cKDTree(self.seeds).query(np.asarray(points, dtype=float))
        return labels.astype(int)

    def groups(self, points: Sequence[Point]) -> Dict[int, List[int]]:
        """Indices of ``points`` grouped by stratum."""
        labels = self.assign(points)
        grouped: Dict[int, List[int]] = {}
        for index, label in enumerate(labels):
            grouped.setdefault(int(label), []).append(index)
        return grouped


def voronoi_strata(
    bounds: BBox,
    districts: int = 8,
    rng: np.random.Generator | None = None,
    area_sample_grid: int = 64,
) -> Strata:
    """Random Voronoi districts with sample-grid area estimation."""
    if districts < 1:
        raise SelectionError("need at least one district")
    rng = rng or np.random.default_rng(0)
    seeds = np.column_stack(
        [
            rng.uniform(bounds.min_x, bounds.max_x, size=districts),
            rng.uniform(bounds.min_y, bounds.max_y, size=districts),
        ]
    )
    weights = _estimate_area_weights(seeds, bounds, area_sample_grid)
    return Strata(seeds=seeds, bounds=bounds, area_weights=weights)


def grid_strata(bounds: BBox, rows: int = 3, cols: int = 3) -> Strata:
    """Regular rectangular districts (rows x cols)."""
    if rows < 1 or cols < 1:
        raise SelectionError("grid strata need positive rows and cols")
    xs = np.linspace(bounds.min_x, bounds.max_x, 2 * cols + 1)[1::2]
    ys = np.linspace(bounds.min_y, bounds.max_y, 2 * rows + 1)[1::2]
    seeds = np.array([(x, y) for y in ys for x in xs])
    weights = np.full(rows * cols, 1.0 / (rows * cols))
    return Strata(seeds=seeds, bounds=bounds, area_weights=weights)


def _estimate_area_weights(
    seeds: np.ndarray, bounds: BBox, grid_n: int
) -> np.ndarray:
    from scipy.spatial import cKDTree

    axis_x = np.linspace(bounds.min_x, bounds.max_x, grid_n)
    axis_y = np.linspace(bounds.min_y, bounds.max_y, grid_n)
    gx, gy = np.meshgrid(axis_x, axis_y)
    samples = np.column_stack([gx.ravel(), gy.ravel()])
    _, owner = cKDTree(seeds).query(samples)
    counts = np.bincount(owner, minlength=len(seeds)).astype(float)
    total = counts.sum()
    if total == 0:
        raise SelectionError("area estimation failed: empty sample grid")
    return counts / total

"""Unit tests for strata."""

import numpy as np
import pytest

from repro.errors import SelectionError
from repro.geometry import BBox
from repro.mobility import grid_strata, voronoi_strata


class TestVoronoiStrata:
    def test_weights_sum_to_one(self):
        strata = voronoi_strata(BBox(0, 0, 10, 10), districts=6,
                                rng=np.random.default_rng(0))
        assert strata.area_weights.sum() == pytest.approx(1.0)
        assert strata.count == 6

    def test_assignment_nearest_seed(self):
        strata = voronoi_strata(BBox(0, 0, 10, 10), districts=4,
                                rng=np.random.default_rng(1))
        labels = strata.assign([tuple(s) for s in strata.seeds])
        assert list(labels) == list(range(4))

    def test_assign_empty(self):
        strata = voronoi_strata(BBox(0, 0, 10, 10), districts=3,
                                rng=np.random.default_rng(0))
        assert len(strata.assign([])) == 0

    def test_groups_partition_points(self):
        strata = voronoi_strata(BBox(0, 0, 10, 10), districts=5,
                                rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        points = [tuple(p) for p in rng.uniform(0, 10, size=(40, 2))]
        groups = strata.groups(points)
        total = sorted(i for members in groups.values() for i in members)
        assert total == list(range(40))

    def test_invalid_district_count(self):
        with pytest.raises(SelectionError):
            voronoi_strata(BBox(0, 0, 1, 1), districts=0)


class TestGridStrata:
    def test_uniform_weights(self):
        strata = grid_strata(BBox(0, 0, 10, 10), rows=2, cols=3)
        assert strata.count == 6
        assert np.allclose(strata.area_weights, 1 / 6)

    def test_assignment_respects_cells(self):
        strata = grid_strata(BBox(0, 0, 10, 10), rows=2, cols=2)
        # Point in the lower-left quadrant maps to the lower-left seed.
        (label,) = strata.assign([(1, 1)])
        sx, sy = strata.seeds[label]
        assert sx < 5 and sy < 5

    def test_invalid_shape(self):
        with pytest.raises(SelectionError):
            grid_strata(BBox(0, 0, 1, 1), rows=0)

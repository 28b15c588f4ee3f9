"""Unit tests for axis-aligned decomposition networks (§3.1.1)."""

import numpy as np
import pytest

from lib.axis_aligned import (
    calibrate_grid_to_walls,
    grid_decomposition_network,
    kd_decomposition_network,
)
from repro.errors import SelectionError
from repro.geometry import BBox
from repro.mobility import EXT
from repro.trajectories import occupancy_count


class TestGridDecomposition:
    def test_parameters_validated(self, grid_domain):
        with pytest.raises(SelectionError):
            grid_decomposition_network(grid_domain, 0, 3)

    def test_single_cell_has_geofence_only(self, grid_domain):
        network = grid_decomposition_network(grid_domain, 1, 1)
        # All walls are EXT geofence edges; one interior region.
        assert all(EXT in wall for wall in network.walls)
        assert network.region_count == 1

    def test_cells_partition_junctions(self, grid_domain):
        network = grid_decomposition_network(grid_domain, 3, 3)
        total = set()
        for region in network.region_ids:
            junctions = network.region_junctions(region)
            assert not (total & junctions)
            total |= junctions
        assert total == set(grid_domain.junctions)
        # EXT region contains no junction: the geofence closes the rim.
        assert network.region_junctions(network.ext_region) == set()

    def test_more_cells_more_walls(self, organic_domain):
        coarse = grid_decomposition_network(organic_domain, 2, 2)
        fine = grid_decomposition_network(organic_domain, 6, 6)
        assert len(fine.walls) > len(coarse.walls)
        assert fine.region_count >= coarse.region_count

    def test_counts_exact_on_cells(
        self, organic_domain, workload, events
    ):
        network = grid_decomposition_network(organic_domain, 4, 4)
        form = network.build_form(events)
        region = network.region_ids[0]
        junctions = network.region_junctions(region)
        boundary = network.region_boundary([region])
        t = 0.5 * workload.horizon
        assert form.integrate_until(boundary, t) == occupancy_count(
            workload.trips, junctions, t
        )

    def test_sensors_nonempty(self, organic_domain):
        network = grid_decomposition_network(organic_domain, 3, 3)
        assert network.sensors


class TestKdDecomposition:
    def test_parameters_validated(self, grid_domain):
        with pytest.raises(SelectionError):
            kd_decomposition_network(grid_domain, 0)

    def test_leaf_budget_respected(self, organic_domain):
        network = kd_decomposition_network(organic_domain, leaves=8)
        # Regions = leaves (some may merge if a leaf is disconnected,
        # producing more, never fewer, than... split pieces). At least
        # the partition is non-trivial.
        assert network.region_count >= 4

    def test_balanced_population(self, organic_domain):
        network = kd_decomposition_network(organic_domain, leaves=8)
        sizes = [
            len(network.region_junctions(r)) for r in network.region_ids
        ]
        # Median splits: no region dwarfs the rest.
        assert max(sizes) <= 0.6 * organic_domain.junction_count


class TestCalibration:
    def test_calibrate_grid_to_walls(self, organic_domain):
        rows, cols = calibrate_grid_to_walls(organic_domain, 150)
        network = grid_decomposition_network(organic_domain, rows, cols)
        assert abs(len(network.walls) - 150) <= 120

    def test_invalid_target(self, organic_domain):
        with pytest.raises(SelectionError):
            calibrate_grid_to_walls(organic_domain, 0)


class TestDeadSpaceEffect:
    def test_planar_sampling_contacts_fewer_sensors(
        self, organic_domain, sampled_net, sampled_form, events, workload
    ):
        """The §3.1.1 claim at test scale: at a comparable wall budget
        the placement-based planar graph needs fewer communication
        sensors per query than a grid decomposition."""
        from repro.query import QueryEngine, RangeQuery

        shape = calibrate_grid_to_walls(
            organic_domain, len(sampled_net.walls)
        )
        grid_net = grid_decomposition_network(organic_domain, *shape)
        grid_form = grid_net.build_form(events)

        box = BBox(1.5, 1.5, 8.5, 8.5)
        query = RangeQuery(box, 0, 0.5 * workload.horizon)
        planar = QueryEngine(sampled_net, sampled_form).execute(query)
        gridded = QueryEngine(grid_net, grid_form).execute(query)
        if planar.missed or gridded.missed:
            pytest.skip("budget too small at this seed")
        assert planar.nodes_accessed <= gridded.nodes_accessed

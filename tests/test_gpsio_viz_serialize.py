"""Unit tests for GPS import."""

import csv

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.forms import TrackingForm
from repro.trajectories import (
    export_trips_as_gps,
    load_gps_trips,
    occupancy_count,
    read_gps_csv,
    trips_from_fixes,
)


# ----------------------------------------------------------------------
# GPS I/O (§5.1.3 pre-processing)
# ----------------------------------------------------------------------
class TestGpsCsv:
    def test_read_valid(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("object_id,t,x,y\n1,0.0,2.5,3.5\n1,10.0,3.0,3.0\n")
        fixes = read_gps_csv(path)
        assert fixes == [(1, 0.0, 2.5, 3.5), (1, 10.0, 3.0, 3.0)]

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,time\n1,0\n")
        with pytest.raises(WorkloadError):
            read_gps_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("object_id,t,x,y\n1,zero,2,3\n")
        with pytest.raises(WorkloadError):
            read_gps_csv(path)


class TestTripsFromFixes:
    def test_map_matching_round_trip(self, grid_domain, tmp_path):
        """Export noiseless GPS from known trips, re-import, and check
        the occupancy ground truth survives the round trip."""
        from repro.trajectories import plan_trip

        a = grid_domain.nearest_junction((0, 0))
        b = grid_domain.nearest_junction((10, 10))
        original = plan_trip(grid_domain, 7, a, b, 100.0, 0.01,
                             dwell_time=500.0)
        path = tmp_path / "trips.csv"
        export_trips_as_gps(grid_domain, [original], path)
        loaded = load_gps_trips(grid_domain, path)
        assert len(loaded) == 1
        trip = loaded[0]
        assert trip.origin == a
        assert trip.destination == b
        region = {b}
        probe = original.end_time - 1.0
        assert occupancy_count([trip], region, probe) == occupancy_count(
            [original], region, probe
        )

    def test_noisy_gps_still_matches(self, grid_domain, tmp_path):
        from repro.trajectories import plan_trip

        a = grid_domain.nearest_junction((0, 0))
        b = grid_domain.nearest_junction((10, 0))
        original = plan_trip(grid_domain, 1, a, b, 0.0, 0.01, 100.0)
        path = tmp_path / "noisy.csv"
        export_trips_as_gps(grid_domain, [original], path,
                            jitter=0.3, rng=np.random.default_rng(0))
        loaded = load_gps_trips(grid_domain, path)
        # Jitter of 0.3 on a spacing-1.67 grid: snaps stay correct.
        assert loaded[0].origin == a
        assert loaded[0].destination == b

    def test_single_fix_objects_dropped(self, grid_domain):
        trips = trips_from_fixes(grid_domain, [(1, 0.0, 5.0, 5.0)])
        assert trips == []

    def test_stationary_object_gets_observable_dwell(self, grid_domain):
        trips = trips_from_fixes(
            grid_domain,
            [(1, 0.0, 5.0, 5.0), (1, 60.0, 5.05, 5.0)],
        )
        assert len(trips) == 1
        assert trips[0].end_time > trips[0].start_time

    def test_unsorted_and_duplicate_timestamps(self, grid_domain):
        fixes = [
            (1, 50.0, 10.0, 10.0),
            (1, 0.0, 0.0, 0.0),
            (1, 50.0, 10.0, 9.8),  # duplicate t: last wins
        ]
        trips = trips_from_fixes(grid_domain, fixes)
        assert len(trips) == 1
        times = [t for _, t in trips[0].visits]
        assert times == sorted(times)

    def test_invalid_min_fixes(self, grid_domain):
        with pytest.raises(WorkloadError):
            trips_from_fixes(grid_domain, [], min_fixes=0)

    def test_ingested_counts_consistent(self, grid_domain, tmp_path):
        """GPS-imported trips drive the standard counting pipeline."""
        from repro.trajectories import all_events, plan_trip

        a = grid_domain.nearest_junction((0, 0))
        b = grid_domain.nearest_junction((5, 5))
        trips = [plan_trip(grid_domain, i, a, b, 10.0 * i, 0.01, 300.0)
                 for i in range(3)]
        path = tmp_path / "fleet.csv"
        export_trips_as_gps(grid_domain, trips, path)
        loaded = load_gps_trips(grid_domain, path)
        form = TrackingForm()
        for event in all_events(grid_domain, loaded):
            form.record(event.tail, event.head, event.t)
        region = {b}
        chain = grid_domain.inward_boundary_edges(region)
        probe = max(t.end_time for t in loaded) - 1.0
        assert form.integrate_until(chain, probe) == occupancy_count(
            loaded, region, probe
        )

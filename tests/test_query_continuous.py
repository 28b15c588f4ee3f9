"""Unit tests for continuous (standing) query monitoring."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.geometry import BBox
from repro.query import ContinuousCountMonitor
from repro.stream import StreamingEventStore
from repro.trajectories import CrossingEvent, occupancy_count


@pytest.fixture()
def monitor(sampled_net):
    return ContinuousCountMonitor(sampled_net)


class TestRegistration:
    def test_add_region(self, monitor):
        state = monitor.add_region("centre", BBox(1.5, 1.5, 8.5, 8.5))
        assert state.regions
        assert monitor.count("centre") == 0.0
        assert "centre" in monitor.region_names

    def test_duplicate_name_rejected(self, monitor):
        monitor.add_region("a", BBox(1.5, 1.5, 8.5, 8.5))
        with pytest.raises(QueryError):
            monitor.add_region("a", BBox(2, 2, 8, 8))

    def test_missing_region_rejected(self, monitor):
        with pytest.raises(QueryError):
            monitor.add_region("tiny", BBox(0.0, 0.0, 0.1, 0.1))

    def test_unknown_count_rejected(self, monitor):
        with pytest.raises(QueryError):
            monitor.count("ghost")

    def test_remove_region(self, monitor):
        monitor.add_region("a", BBox(1.5, 1.5, 8.5, 8.5))
        monitor.remove_region("a")
        assert monitor.region_names == []
        assert monitor.monitored_walls == 0

    def test_remove_unknown_is_noop(self, monitor):
        monitor.remove_region("ghost")


class TestStreaming:
    def test_live_count_matches_batch_query(
        self, organic_domain, sampled_net, sampled_form, events, workload
    ):
        monitor = ContinuousCountMonitor(sampled_net)
        box = BBox(1.5, 1.5, 8.5, 8.5)
        state = monitor.add_region("centre", box)

        cut = workload.horizon * 0.5
        monitor.observe_stream(e for e in events if e.t <= cut)

        # The live count equals Theorem 4.2's integral at the cut time.
        boundary = sampled_net.region_boundary(state.regions)
        batch = sampled_form.integrate_until(boundary, cut)
        assert state.count == batch

        # ... and equals exact occupancy of the covered junctions.
        covered = set()
        for region in state.regions:
            covered |= sampled_net.region_junctions(region)
        assert state.count == occupancy_count(workload.trips, covered, cut)

    def test_multiple_regions_independent(
        self, sampled_net, events, workload
    ):
        monitor = ContinuousCountMonitor(sampled_net)
        monitor.add_region("big", BBox(1.0, 1.0, 9.0, 9.0))
        monitor.add_region("small", BBox(3.0, 3.0, 7.5, 7.5))
        monitor.observe_stream(events)
        counts = monitor.counts()
        assert set(counts) == {"big", "small"}
        assert counts["big"] >= counts["small"] - 1e-9

    def test_entries_and_exits_tracked(self, sampled_net, events):
        monitor = ContinuousCountMonitor(sampled_net)
        state = monitor.add_region("centre", BBox(1.5, 1.5, 8.5, 8.5))
        monitor.observe_stream(events)
        assert state.entries > 0
        assert state.exits > 0
        assert state.count == state.entries - state.exits
        assert state.last_event_time is not None

    def test_history_checkpoints(self, sampled_net, events):
        monitor = ContinuousCountMonitor(sampled_net, keep_history=True)
        state = monitor.add_region("centre", BBox(1.5, 1.5, 8.5, 8.5))
        monitor.observe_stream(events[:2000])
        assert len(state.history) == state.entries + state.exits
        times = [t for t, _ in state.history]
        assert times == sorted(times)

    def test_irrelevant_events_ignored(self, sampled_net, events):
        monitor = ContinuousCountMonitor(sampled_net)
        state = monitor.add_region("centre", BBox(3.0, 3.0, 7.5, 7.5))
        relevant = state.entries + state.exits
        monitor.observe_stream(events[:500])
        processed = state.entries + state.exits
        # Most of the first 500 events do not touch this boundary.
        assert processed < 500


class TestAttachedHistory:
    """A store hands each arrival window to its monitors time-sorted:
    with history on, disorder inside a window is absorbed, disorder
    across windows still breaks the checkpoint contract."""

    @pytest.fixture()
    def watched(self, sampled_net):
        store = StreamingEventStore(sampled_net)
        monitor = ContinuousCountMonitor(sampled_net, keep_history=True)
        state = monitor.add_region("centre", BBox(1.5, 1.5, 8.5, 8.5))
        store.attach_monitor(monitor)
        tail, head = state.boundary[0]
        return store, state, [
            CrossingEvent(tail, head, t) for t in (300.0, 100.0, 200.0)
        ]

    def test_disorder_inside_a_window_is_sorted_away(self, watched):
        store, state, window = watched
        assert store.append_events(window) == 3
        assert [t for t, _ in state.history] == [100.0, 200.0, 300.0]

    def test_disorder_across_windows_still_raises(self, watched):
        store, state, (late, early, _) = watched
        store.append_events([late])
        with pytest.raises(QueryError, match="out-of-order"):
            store.append_events([early])
        assert [t for t, _ in state.history] == [300.0]

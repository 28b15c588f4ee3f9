"""Unit tests for the Euler-histogram baseline and the network simulator."""

import numpy as np
import pytest

from lib.euler import EulerHistogramBaseline
from repro.errors import QueryError, SelectionError
from repro.geometry import BBox
from repro.network import NetworkSimulator
from repro.query import RangeQuery, STATIC, TRANSIENT
from repro.trajectories import occupancy_count


@pytest.fixture(scope="module")
def baseline(request):
    organic_domain = request.getfixturevalue("organic_domain")
    events = request.getfixturevalue("events")
    instance = EulerHistogramBaseline(
        organic_domain,
        m=organic_domain.junction_count // 2,
        rng=np.random.default_rng(0),
        time_bins=None,  # exact mode for the accuracy tests
    )
    instance.ingest(events)
    return instance


class TestBaselineConstruction:
    def test_budget_validated(self, organic_domain):
        with pytest.raises(SelectionError):
            EulerHistogramBaseline(organic_domain, m=0)
        with pytest.raises(SelectionError):
            EulerHistogramBaseline(
                organic_domain, m=organic_domain.junction_count + 1
            )

    def test_query_before_ingest_rejected(self, organic_domain):
        fresh = EulerHistogramBaseline(organic_domain, m=10)
        with pytest.raises(QueryError):
            fresh.execute(RangeQuery(BBox(0, 0, 5, 5), 0, 1))

    def test_size_fraction(self, organic_domain):
        instance = EulerHistogramBaseline(organic_domain, m=10)
        assert instance.size_fraction == pytest.approx(
            10 / organic_domain.junction_count
        )


class TestBaselineQueries:
    def test_full_sampling_exact_in_unbinned_mode(
        self, organic_domain, events, workload
    ):
        everything = EulerHistogramBaseline(
            organic_domain,
            m=organic_domain.junction_count,
            time_bins=None,
        )
        everything.ingest(events)
        box = BBox(2, 2, 8, 8)
        t2 = 0.5 * workload.horizon
        result = everything.execute(RangeQuery(box, 0.0, t2, kind=STATIC))
        region = organic_domain.junctions_in_bbox(box)
        assert result.value == occupancy_count(workload.trips, region, t2)

    def test_estimates_close_at_half_sampling(
        self, baseline, organic_domain, workload
    ):
        box = BBox(1, 1, 9, 9)
        t2 = 0.6 * workload.horizon
        result = baseline.execute(RangeQuery(box, 0.0, t2))
        region = organic_domain.junctions_in_bbox(box)
        exact = occupancy_count(workload.trips, region, t2)
        if exact > 5:
            assert result.value == pytest.approx(exact, rel=0.8)

    def test_transient_query(self, baseline, organic_domain, workload):
        box = BBox(1, 1, 9, 9)
        result = baseline.execute(
            RangeQuery(box, 0.2 * workload.horizon,
                       0.7 * workload.horizon, kind=TRANSIENT)
        )
        assert not result.missed

    def test_miss_when_no_sampled_face(self, organic_domain, events):
        sparse = EulerHistogramBaseline(
            organic_domain, m=1, rng=np.random.default_rng(5)
        )
        sparse.ingest(events)
        # Tiny box that very likely excludes the single sampled face.
        result = sparse.execute(RangeQuery(BBox(0, 0, 0.5, 0.5), 0, 1))
        assert result.missed or result.nodes_accessed == 1

    def test_nodes_accessed_scales_with_area(self, baseline, workload):
        t2 = 0.5 * workload.horizon
        small = baseline.execute(RangeQuery(BBox(4, 4, 6, 6), 0, t2))
        large = baseline.execute(RangeQuery(BBox(1, 1, 9, 9), 0, t2))
        assert large.nodes_accessed > small.nodes_accessed


class TestNetworkSimulator:
    def test_server_fanout_accounting(self, sampled_net):
        simulator = NetworkSimulator(sampled_net)
        report = simulator.dispatch(
            list(sampled_net.sensors[:5]), strategy="server_fanout"
        )
        assert report.sensors_contacted == 5
        assert report.messages == 10
        assert all(load == 2 for load in report.load.values())

    def test_perimeter_walk_hops_exceed_sensor_count(self, sampled_net):
        simulator = NetworkSimulator(sampled_net)
        sensors = list(sampled_net.sensors[:6])
        report = simulator.dispatch(sensors, strategy="perimeter_walk")
        assert report.sensors_contacted == 6
        assert report.hops >= len(sensors)

    def test_deduplicates_sensors(self, sampled_net):
        simulator = NetworkSimulator(sampled_net)
        sensor = sampled_net.sensors[0]
        report = simulator.dispatch([sensor, sensor])
        assert report.sensors_contacted == 1

    def test_empty_perimeter_rejected(self, sampled_net):
        with pytest.raises(QueryError):
            NetworkSimulator(sampled_net).dispatch([])

    def test_unknown_strategy_rejected(self, sampled_net):
        with pytest.raises(QueryError):
            NetworkSimulator(sampled_net).dispatch(
                [sampled_net.sensors[0]], strategy="pigeon"
            )

    def test_walk_cheaper_messages_than_fanout(self, sampled_net):
        simulator = NetworkSimulator(sampled_net)
        sensors = list(sampled_net.sensors[:8])
        fanout = simulator.dispatch(sensors, strategy="server_fanout")
        walk = simulator.dispatch(sensors, strategy="perimeter_walk")
        # The walk sends one message per sensor plus 2 server legs,
        # always fewer than 2 per sensor.
        assert walk.messages < fanout.messages

    @pytest.mark.parametrize("strategy", ["server_fanout", "perimeter_walk"])
    def test_load_sums_to_messages(self, sampled_net, strategy):
        simulator = NetworkSimulator(sampled_net)
        sensors = list(sampled_net.sensors[:7])
        report = simulator.dispatch(sensors, strategy=strategy)
        assert sum(report.load.values()) == report.messages

    def test_dispatch_metrics_match_report(self, sampled_net):
        from repro.obs import use_registry

        with use_registry() as registry:
            simulator = NetworkSimulator(sampled_net)
            sensors = list(sampled_net.sensors[:6])
            fanout = simulator.dispatch(sensors, strategy="server_fanout")
            walks = [
                simulator.dispatch(sensors, strategy="perimeter_walk")
                for _ in range(3)
            ]
        for strategy, reports in (
            ("server_fanout", [fanout]),
            ("perimeter_walk", walks),
        ):
            assert registry.value(
                "repro_sim_dispatches_total", strategy=strategy
            ) == len(reports)
            assert registry.value(
                "repro_sim_messages_total", strategy=strategy
            ) == sum(r.messages for r in reports)
            assert registry.value(
                "repro_sim_hops_total", strategy=strategy
            ) == sum(r.hops for r in reports)
            hist = registry.histogram(
                "repro_sim_messages", strategy=strategy
            )
            assert hist.count == len(reports)
            assert hist.sum == sum(r.messages for r in reports)

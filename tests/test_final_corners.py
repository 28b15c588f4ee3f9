"""Final corner-coverage batch across modules."""

import numpy as np
import pytest

from lib.energy import RadioParameters
from repro.forms import static_count, transient_count
from repro.models import LinearModel, ModeledCountStore
from repro.network import NetworkSimulator


class TestCountFnWithModeledStores:
    """The Theorem 4.2/4.3 helpers accept learned stores too."""

    @pytest.fixture()
    def setup(self, sampled_net, sampled_form):
        store = ModeledCountStore.fit(sampled_form, LinearModel)
        region = sampled_net.region_ids[:3]
        boundary = sampled_net.region_boundary(region)
        return store, boundary

    def test_static_count_helper(self, setup, workload):
        store, boundary = setup
        value = static_count(store, boundary, 0.5 * workload.horizon)
        assert np.isfinite(value)

    def test_transient_count_helper(self, setup, workload):
        store, boundary = setup
        value = transient_count(
            store, boundary, 0.2 * workload.horizon, 0.7 * workload.horizon
        )
        assert np.isfinite(value)

    def test_transient_equals_static_difference(self, setup, workload):
        store, boundary = setup
        t1, t2 = 0.3 * workload.horizon, 0.8 * workload.horizon
        assert transient_count(store, boundary, t1, t2) == pytest.approx(
            static_count(store, boundary, t2)
            - static_count(store, boundary, t1)
        )


class TestRadioModel:
    def test_receive_constant(self):
        radio = RadioParameters()
        assert radio.receive() == radio.rx_electronics

    def test_path_loss_exponent_effect(self):
        near = RadioParameters(path_loss_exponent=2.0)
        far = RadioParameters(path_loss_exponent=4.0)
        assert far.transmit(10.0) > near.transmit(10.0)

    def test_zero_distance_costs_electronics(self):
        radio = RadioParameters()
        assert radio.transmit(0.0) == radio.tx_electronics


class TestSimulatorDeterminism:
    def test_angular_order_stable(self, sampled_net):
        simulator = NetworkSimulator(sampled_net)
        sensors = list(sampled_net.sensors[:7])
        first = simulator.dispatch(sensors, strategy="perimeter_walk")
        second = simulator.dispatch(sensors, strategy="perimeter_walk")
        assert first.hops == second.hops
        assert first.load == second.load

    def test_walk_visits_every_sensor_once(self, sampled_net):
        simulator = NetworkSimulator(sampled_net)
        sensors = list(sampled_net.sensors[:9])
        report = simulator.dispatch(sensors, strategy="perimeter_walk")
        assert set(report.load) == set(sensors)
        # Interior sensors receive exactly one message; the first and
        # last also talk to the server.
        assert sorted(report.load.values())[-1] <= 2


class TestHarnessStoreOverride:
    def test_engine_accepts_custom_store(self):
        from lib.harness import get_pipeline
        from repro.evaluation import SMALL_CONFIG

        pipeline = get_pipeline(SMALL_CONFIG)
        network = pipeline.network("uniform", 8, seed=0)
        store = ModeledCountStore.fit(pipeline.form(network), LinearModel)
        engine = pipeline.engine(network, store=store)
        query = pipeline.standard_queries(0.1728, n=1)[0]
        result = engine.execute(query)
        assert result is not None

    def test_knn_network_via_harness(self):
        from lib.harness import get_pipeline
        from repro.evaluation import SMALL_CONFIG

        pipeline = get_pipeline(SMALL_CONFIG)
        tri = pipeline.network("quadtree", 10, seed=0)
        knn = pipeline.network("quadtree", 10, seed=0,
                               connectivity="knn", k=3)
        assert tri is not knn
        assert knn.name.endswith("knn")


class TestQueryWindows:
    def test_windows_inside_horizon(self, organic_domain):
        from repro.evaluation import QueryWorkloadConfig, generate_queries

        horizon = 100_000.0
        queries = generate_queries(
            organic_domain, horizon,
            QueryWorkloadConfig(n_queries=20, area_fraction=0.05,
                                window_fraction=0.5, seed=9),
        )
        for query in queries:
            assert 0.0 <= query.t1 < query.t2 <= horizon

    def test_distinct_seeds_distinct_batteries(self, organic_domain):
        from repro.evaluation import QueryWorkloadConfig, generate_queries

        a = generate_queries(
            organic_domain, 100.0,
            QueryWorkloadConfig(n_queries=5, area_fraction=0.05, seed=1),
        )
        b = generate_queries(
            organic_domain, 100.0,
            QueryWorkloadConfig(n_queries=5, area_fraction=0.05, seed=2),
        )
        assert a != b


class TestChartFormatting:
    def test_fmt_ranges(self):
        from lib.figplot import _fmt

        assert _fmt(0) == "0"
        assert "e" in _fmt(12345.0)
        assert "e" in _fmt(0.0001)
        assert _fmt(0.5) == "0.5"

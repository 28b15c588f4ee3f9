"""Fault injection, fault-tolerant dispatch and the accounting fixes.

Covers the `repro.network.faults` layer (seeded schedules, retry
policy), the fault-tolerant `NetworkSimulator` paths (byte-identity at
zero rates, detours, server stitching, fan-out skips), the degraded
query engine integration, and the hop/energy accounting regressions
(shared server geometry, endpoint receive costs).
"""

import math

import pytest

from lib.energy import EnergyModel
from repro import FrameworkConfig, InNetworkFramework
from repro.errors import ConfigurationError, QueryError
from repro.geometry import BBox, distance
from repro.network import (
    FaultConfig,
    FaultInjector,
    NetworkSimulator,
    RetryPolicy,
    default_server_position,
)
from repro.obs import use_registry
from repro.query import QueryEngine, RangeQuery
from repro.sampling import full_network


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------
class TestFaultConfig:
    @pytest.mark.parametrize(
        "field", ["sensor_failure_rate", "intermittent_rate",
                  "availability", "drop_rate"]
    )
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_probabilities_validated(self, field, bad):
        with pytest.raises(ConfigurationError):
            FaultConfig(**{field: bad})

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(base_latency=-1.0)
        with pytest.raises(ConfigurationError):
            FaultConfig(hop_latency=-0.1)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(stitch_after=0)

    def test_wait_backs_off_exponentially(self):
        policy = RetryPolicy(timeout=2.0, backoff=3.0)
        assert policy.wait(0) == 2.0
        assert policy.wait(1) == 6.0
        assert policy.wait(2) == 18.0


# ----------------------------------------------------------------------
# The injector
# ----------------------------------------------------------------------
class TestFaultInjector:
    SENSORS = list(range(40))

    def test_schedule_deterministic_per_seed(self):
        config = FaultConfig(seed=3, sensor_failure_rate=0.3,
                             intermittent_rate=0.2)
        a = FaultInjector(config, self.SENSORS)
        b = FaultInjector(config, self.SENSORS)
        assert a.crashed == b.crashed
        assert a.flaky == b.flaky
        assert a.crashed
        assert a.crashed.isdisjoint(a.flaky)

    def test_schedule_varies_with_seed(self):
        schedules = {
            FaultInjector(
                FaultConfig(seed=seed, sensor_failure_rate=0.3),
                self.SENSORS,
            ).crashed
            for seed in range(6)
        }
        assert len(schedules) > 1

    def test_zero_rates_draw_nothing(self):
        injector = FaultInjector(FaultConfig(seed=9), self.SENSORS)
        assert injector.crashed == frozenset()
        assert injector.flaky == frozenset()
        assert all(injector.responds(s) for s in self.SENSORS)
        assert all(injector.delivered() for _ in range(20))

    def test_explicit_overrides(self):
        injector = FaultInjector(
            FaultConfig(), self.SENSORS, crashed=[1, 2], flaky=[2, 3]
        )
        assert injector.crashed == frozenset({1, 2})
        # Flaky is kept disjoint from crashed.
        assert injector.flaky == frozenset({3})
        assert not injector.responds(1)
        assert injector.responds(7)

    def test_server_always_responds(self):
        injector = FaultInjector(
            FaultConfig(sensor_failure_rate=1.0), self.SENSORS
        )
        assert injector.crashed == frozenset(self.SENSORS)
        assert injector.responds(None)

    def test_flaky_sensor_responds_sometimes(self):
        injector = FaultInjector(
            FaultConfig(seed=1, availability=0.5),
            self.SENSORS,
            flaky=[0],
        )
        answers = {injector.responds(0) for _ in range(50)}
        assert answers == {True, False}

    def test_drops_follow_rate(self):
        injector = FaultInjector(
            FaultConfig(seed=2, drop_rate=0.5), self.SENSORS
        )
        outcomes = [injector.delivered() for _ in range(200)]
        assert 40 < sum(outcomes) < 160

    def test_message_latency(self):
        injector = FaultInjector(
            FaultConfig(base_latency=2.0, hop_latency=0.25), self.SENSORS
        )
        assert injector.message_latency(4) == 3.0

    def test_for_network(self, sampled_net):
        injector = FaultInjector.for_network(
            sampled_net, FaultConfig(seed=0, sensor_failure_rate=1.0)
        )
        assert injector.crashed == frozenset(sampled_net.sensors)


# ----------------------------------------------------------------------
# Byte-identity of the fault-aware paths at zero failure rates
# ----------------------------------------------------------------------
class TestZeroRateIdentity:
    @pytest.mark.parametrize("strategy", ["server_fanout", "perimeter_walk"])
    def test_reports_identical_without_and_with_idle_injector(
        self, sampled_net, strategy
    ):
        sensors = list(sampled_net.sensors[:8])
        plain = NetworkSimulator(sampled_net).dispatch(
            sensors, strategy=strategy
        )
        idle = FaultInjector.for_network(sampled_net, FaultConfig(seed=4))
        faulty = NetworkSimulator(sampled_net, faults=idle).dispatch(
            sensors, strategy=strategy
        )
        assert faulty.messages == plain.messages
        assert faulty.hops == plain.hops
        assert faulty.load == plain.load
        assert faulty.sensors_contacted == plain.sensors_contacted
        assert faulty.skipped_sensors == ()
        assert faulty.retries == 0
        assert faulty.drops == 0
        assert faulty.coverage == 1.0
        assert not faulty.degraded

    def test_faultless_report_trivial_degradation_fields(self, sampled_net):
        report = NetworkSimulator(sampled_net).dispatch(
            list(sampled_net.sensors[:5])
        )
        assert report.error_fraction == 0.0
        assert report.latency == 0.0
        assert report.server_stitches == 0


# ----------------------------------------------------------------------
# Fault-tolerant dispatch
# ----------------------------------------------------------------------
class TestFaultyDispatch:
    def _simulator(self, network, crashed, **retry):
        injector = FaultInjector(
            FaultConfig(), network.sensors, crashed=crashed
        )
        return NetworkSimulator(
            network, faults=injector, retry=RetryPolicy(**retry)
        )

    def test_walk_detours_around_dead_sensor(self, sampled_net):
        sensors = list(sampled_net.sensors[:8])
        order = NetworkSimulator(sampled_net)._angular_order(sensors)
        dead = order[3]
        simulator = self._simulator(sampled_net, [dead], max_retries=2)
        report = simulator.dispatch(sensors, strategy="perimeter_walk")
        assert report.skipped_sensors == (dead,)
        assert report.detours == 1
        assert report.retries == 2  # the dead sensor's extra attempts
        assert report.sensors_contacted == len(sensors) - 1
        assert report.load[dead] == 0
        assert report.coverage == pytest.approx(7 / 8)
        assert report.degraded

    def test_walk_stitches_through_server_after_dead_run(self, sampled_net):
        sensors = list(sampled_net.sensors[:8])
        order = NetworkSimulator(sampled_net)._angular_order(sensors)
        dead = order[1:5]  # four consecutive unreachable sensors
        simulator = self._simulator(
            sampled_net, dead, max_retries=0, stitch_after=3
        )
        report = simulator.dispatch(sensors, strategy="perimeter_walk")
        assert report.server_stitches == 1
        assert report.detours == 4
        assert set(report.skipped_sensors) == set(dead)
        assert report.sensors_contacted == len(sensors) - 4

    def test_walk_all_dead_reports_zero_coverage(self, sampled_net):
        sensors = list(sampled_net.sensors[:6])
        simulator = self._simulator(sampled_net, sensors, max_retries=1)
        report = simulator.dispatch(sensors, strategy="perimeter_walk")
        assert report.sensors_contacted == 0
        assert report.coverage == 0.0
        assert report.error_fraction == 1.0
        assert set(report.skipped_sensors) == set(sensors)

    def test_fanout_skips_dead_sensor(self, sampled_net):
        sensors = list(sampled_net.sensors[:6])
        dead = sensors[2]
        simulator = self._simulator(sampled_net, [dead], max_retries=2)
        report = simulator.dispatch(sensors, strategy="server_fanout")
        assert report.skipped_sensors == (dead,)
        assert report.sensors_contacted == 5
        assert report.load[dead] == 0
        # 5 reached round trips + 3 unanswered request attempts.
        assert report.messages == 5 * 2 + 3
        assert report.retries == 2

    @pytest.mark.parametrize("strategy", ["server_fanout", "perimeter_walk"])
    def test_certain_drops_lose_everything(self, sampled_net, strategy):
        injector = FaultInjector(
            FaultConfig(seed=0, drop_rate=1.0), sampled_net.sensors
        )
        simulator = NetworkSimulator(sampled_net, faults=injector)
        sensors = list(sampled_net.sensors[:5])
        report = simulator.dispatch(sensors, strategy=strategy)
        assert report.coverage == 0.0
        assert report.sensors_contacted == 0
        assert report.drops == report.messages
        assert report.latency > 0.0

    def test_faulty_latency_includes_backoff(self, sampled_net):
        sensors = list(sampled_net.sensors[:5])
        idle = NetworkSimulator(
            sampled_net,
            faults=FaultInjector(FaultConfig(), sampled_net.sensors),
        ).dispatch(sensors, strategy="perimeter_walk")
        degraded = self._simulator(
            sampled_net, [sensors[0]], max_retries=2
        ).dispatch(sensors, strategy="perimeter_walk")
        assert degraded.latency > idle.latency


# ----------------------------------------------------------------------
# Dispatch metrics
# ----------------------------------------------------------------------
class TestDispatchMetrics:
    def test_fault_counters_match_report(self, sampled_net):
        sensors = list(sampled_net.sensors[:8])
        order = NetworkSimulator(sampled_net)._angular_order(sensors)
        injector = FaultInjector(
            FaultConfig(), sampled_net.sensors, crashed=order[1:5]
        )
        with use_registry() as registry:
            simulator = NetworkSimulator(
                sampled_net,
                faults=injector,
                retry=RetryPolicy(max_retries=0, stitch_after=3),
            )
            report = simulator.dispatch(sensors, strategy="perimeter_walk")
            value = registry.value
            assert value(
                "repro_sim_detours_total", strategy="perimeter_walk"
            ) == report.detours
            assert value(
                "repro_sim_stitches_total", strategy="perimeter_walk"
            ) == report.server_stitches
            assert value(
                "repro_sim_retries_total", strategy="perimeter_walk"
            ) == report.retries
            assert value(
                "repro_sim_drops_total", strategy="perimeter_walk"
            ) == report.drops
            assert value(
                "repro_sim_degraded_dispatches_total",
                strategy="perimeter_walk",
            ) == 1
            hist = registry.histogram(
                "repro_sim_degradation", strategy="perimeter_walk"
            )
            assert hist.count == 1
            assert hist.sum == pytest.approx(report.error_fraction)

    def test_no_fault_metrics_without_injector(self, sampled_net):
        with use_registry() as registry:
            NetworkSimulator(sampled_net).dispatch(
                list(sampled_net.sensors[:5])
            )
            assert registry.value(
                "repro_sim_dispatches_total", strategy="perimeter_walk"
            ) == 1
            assert registry.value(
                "repro_sim_drops_total", strategy="perimeter_walk"
            ) == 0
            assert registry.value(
                "repro_sim_degraded_dispatches_total",
                strategy="perimeter_walk",
            ) == 0


# ----------------------------------------------------------------------
# Satellite 1/3: hop accounting agrees with the energy geometry
# ----------------------------------------------------------------------
class TestHopEnergyAgreement:
    def test_shared_server_position_and_mean_hop(self, sampled_net):
        simulator = NetworkSimulator(sampled_net)
        model = EnergyModel(sampled_net)
        assert simulator.server_position == model.server_position
        assert simulator.server_position == default_server_position(
            sampled_net.domain
        )
        mean = sampled_net.domain.dual.mean_interior_edge_length()
        assert simulator._mean_hop == mean
        assert model._mean_hop == mean

    def test_mean_interior_edge_length_cached_and_positive(
        self, organic_domain
    ):
        dual = organic_domain.dual
        first = dual.mean_interior_edge_length()
        assert first > 0.0
        assert dual.mean_interior_edge_length() == first

    def test_uplink_hops_use_distance_not_constant(self, sampled_net):
        simulator = NetworkSimulator(sampled_net)
        server = simulator.server_position
        mean = sampled_net.domain.dual.mean_interior_edge_length()
        for sensor in sampled_net.sensors:
            expected = max(
                int(round(
                    distance(
                        server, sampled_net.domain.dual.position(sensor)
                    ) / mean
                )),
                1,
            )
            assert simulator.uplink_hops(sensor) == expected
        # The regression: server legs used to charge a constant 1 hop.
        assert any(
            simulator.uplink_hops(s) > 1 for s in sampled_net.sensors
        )

    def test_walk_hops_decompose_into_both_server_legs(self, sampled_net):
        simulator = NetworkSimulator(sampled_net)
        sensors = list(sampled_net.sensors[:7])
        order = simulator._angular_order(sensors)
        expected = simulator.uplink_hops(order[0])
        for a, b in zip(order, order[1:]):
            expected += simulator._hops_between(a, b)
        expected += simulator.uplink_hops(order[-1])
        report = simulator.dispatch(sensors, strategy="perimeter_walk")
        assert report.hops == expected


# ----------------------------------------------------------------------
# Satellite 4: simulator edge cases
# ----------------------------------------------------------------------
class TestSimulatorEdgeCases:
    def test_single_sensor_walk(self, sampled_net):
        simulator = NetworkSimulator(sampled_net)
        sensor = sampled_net.sensors[0]
        report = simulator.dispatch([sensor], strategy="perimeter_walk")
        assert report.sensors_contacted == 1
        assert report.messages == 2  # server->sensor, sensor->server
        assert report.load == {sensor: 2}
        assert report.hops == 2 * simulator.uplink_hops(sensor)
        assert report.coverage == 1.0

    def test_single_sensor_fanout(self, sampled_net):
        sensor = sampled_net.sensors[0]
        report = NetworkSimulator(sampled_net).dispatch(
            [sensor], strategy="server_fanout"
        )
        assert report.sensors_contacted == 1
        assert report.messages == 2
        assert report.load == {sensor: 2}

    @pytest.mark.parametrize("strategy", ["server_fanout", "perimeter_walk"])
    def test_duplicate_sensor_ids_deduplicated(self, sampled_net, strategy):
        simulator = NetworkSimulator(sampled_net)
        a, b = sampled_net.sensors[:2]
        report = simulator.dispatch([a, b, a, b, a], strategy=strategy)
        assert report.sensors_contacted == 2
        assert set(report.load) == {a, b}
        assert sum(report.load.values()) == report.messages

    def test_collinear_sensors_order_deterministically(self, grid_domain):
        # On the jitter-free grid, block centres in one row are exactly
        # collinear with their centroid, so the angular sort ties on
        # the atan2 key and must fall back to the sensor id.
        network = full_network(grid_domain)
        dual = grid_domain.dual
        rows = {}
        for sensor in network.sensors:
            rows.setdefault(round(dual.position(sensor)[1], 6), []).append(
                sensor
            )
        row = max(rows.values(), key=len)
        assert len(row) >= 4
        simulator = NetworkSimulator(network)
        order = simulator._angular_order(list(row))
        assert sorted(order) == sorted(row)
        assert order == simulator._angular_order(list(row))
        report = simulator.dispatch(list(row), strategy="perimeter_walk")
        again = simulator.dispatch(list(row), strategy="perimeter_walk")
        assert report.sensors_contacted == len(row)
        assert (report.messages, report.hops) == (again.messages, again.hops)


# ----------------------------------------------------------------------
# Engine integration: degraded queries
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def answered(request):
    """A (query, plain_result, boundary_sensors) triple the sampled
    engine answers through several sensors."""
    sampled_net = request.getfixturevalue("sampled_net")
    sampled_form = request.getfixturevalue("sampled_form")
    workload = request.getfixturevalue("workload")
    engine = QueryEngine(sampled_net, sampled_form)
    for span in (8.0, 7.0, 9.0, 6.0):
        half = span / 2
        box = BBox(5 - half, 5 - half, 5 + half, 5 + half)
        query = RangeQuery(box, 0.0, 0.6 * workload.horizon)
        result = engine.execute(query)
        if not result.missed and result.nodes_accessed >= 4:
            boundary = sampled_net.region_boundary(result.regions)
            sensors = sorted(sampled_net.sensors_for_boundary(boundary))
            return query, result, sensors
    pytest.skip("no answered multi-sensor query on the sampled network")


class TestEngineUnderFaults:
    def test_invalid_strategy_rejected(self, sampled_net, sampled_form):
        with pytest.raises(QueryError):
            QueryEngine(
                sampled_net, sampled_form, dispatch_strategy="carrier_owl"
            )

    @pytest.mark.parametrize("strategy", ["server_fanout", "perimeter_walk"])
    def test_idle_injector_changes_nothing(
        self, sampled_net, sampled_form, answered, strategy
    ):
        query, plain, _ = answered
        injector = FaultInjector.for_network(sampled_net, FaultConfig(seed=6))
        result = QueryEngine(
            sampled_net,
            sampled_form,
            faults=injector,
            dispatch_strategy=strategy,
        ).execute(query)
        assert result.value == plain.value
        assert result.nodes_accessed == plain.nodes_accessed
        assert result.approximate is False
        assert result.degradation is None

    def test_all_sensors_dead_degrades_fully(
        self, sampled_net, sampled_form, answered
    ):
        query, plain, sensors = answered
        injector = FaultInjector(
            FaultConfig(), sampled_net.sensors, crashed=sampled_net.sensors
        )
        result = QueryEngine(
            sampled_net, sampled_form, faults=injector
        ).execute(query)
        assert result.degradation is not None
        d = result.degradation
        assert set(d.skipped_sensors) == set(sensors)
        assert d.lost_walls > 0
        assert result.approximate is True
        assert result.nodes_accessed == 0
        assert abs(plain.value - result.value) <= d.error_bound

    def test_partial_crash_bound_contains_true_error(
        self, sampled_net, sampled_form, answered
    ):
        query, plain, sensors = answered
        injector = FaultInjector(
            FaultConfig(), sampled_net.sensors, crashed=sensors[::2]
        )
        result = QueryEngine(
            sampled_net, sampled_form, faults=injector
        ).execute(query)
        d = result.degradation
        assert d is not None
        assert set(d.skipped_sensors) <= set(sensors[::2])
        assert 0.0 <= d.coverage <= 1.0
        assert abs(plain.value - result.value) <= d.error_bound

    def test_degradation_metrics_recorded(
        self, sampled_net, sampled_form, answered
    ):
        query, _, _ = answered
        injector = FaultInjector(
            FaultConfig(), sampled_net.sensors, crashed=sampled_net.sensors
        )
        with use_registry() as registry:
            engine = QueryEngine(sampled_net, sampled_form, faults=injector)
            result = engine.execute(query)
            assert result.degradation is not None
            assert registry.value(
                "repro_query_degraded_total", strategy="perimeter_walk"
            ) == 1
            hist = registry.histogram(
                "repro_query_degradation", strategy="perimeter_walk"
            )
            assert hist.count == 1
            assert registry.value(
                "repro_query_sensors_accessed_total"
            ) == result.nodes_accessed

    def test_execute_batch_falls_back_to_sequential(
        self, sampled_net, sampled_form, answered
    ):
        query, _, sensors = answered
        queries = [query, query]
        injector = FaultInjector(
            FaultConfig(), sampled_net.sensors, crashed=sensors[:2]
        )
        engine = QueryEngine(sampled_net, sampled_form, faults=injector)
        batched = engine.execute_batch(queries)
        sequential = engine.execute_many(queries)
        assert [r.value for r in batched] == [r.value for r in sequential]
        assert [r.nodes_accessed for r in batched] == [
            r.nodes_accessed for r in sequential
        ]


# ----------------------------------------------------------------------
# Framework facade
# ----------------------------------------------------------------------
class TestFrameworkFaults:
    @pytest.fixture(scope="class")
    def framework(self, request):
        organic_domain = request.getfixturevalue("organic_domain")
        workload = request.getfixturevalue("workload")
        fw = InNetworkFramework(organic_domain)
        fw.deploy(FrameworkConfig(selector="quadtree", budget=20, seed=3))
        fw.ingest_trips(workload.trips)
        return fw

    def test_fault_injector_requires_deployment(self, organic_domain):
        fw = InNetworkFramework(organic_domain)
        with pytest.raises(QueryError):
            fw.fault_injector()

    def test_fault_injector_covers_deployed_sensors(self, framework):
        injector = framework.fault_injector(
            FaultConfig(seed=1, sensor_failure_rate=1.0)
        )
        assert injector.crashed == frozenset(framework.network.sensors)

    def test_query_with_faults_reports_degradation(self, framework):
        bounds = framework.domain.bounds
        box = BBox.from_center(
            bounds.center, bounds.width * 0.5, bounds.height * 0.5
        )
        injector = framework.fault_injector(
            FaultConfig(seed=2, sensor_failure_rate=1.0)
        )
        plain = framework.query(box, 0.0, 18 * 3600.0)
        faulty = framework.query(box, 0.0, 18 * 3600.0, faults=injector)
        if plain.missed:
            pytest.skip("demo box missed on this deployment")
        assert faulty.degradation is not None
        assert faulty.degradation.strategy == "perimeter_walk"
        assert abs(plain.value - faulty.value) <= (
            faulty.degradation.error_bound
        )

    def test_query_strategy_validated(self, framework):
        bounds = framework.domain.bounds
        box = BBox.from_center(
            bounds.center, bounds.width * 0.5, bounds.height * 0.5
        )
        with pytest.raises(QueryError):
            framework.query(
                box, 0.0, 1.0,
                faults=framework.fault_injector(),
                dispatch_strategy="smoke_signals",
            )

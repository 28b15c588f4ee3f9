"""The compiled query planner: CSR indexes, equivalence, accounting.

Covers the compiled network index structure, the randomized
planner-equivalence cross-check (compiled results byte-equal to the
Python path across road styles, budgets, kinds, bounds and static_eval
modes), id-native chain integration, the bounded LRU boundary cache,
miss wall-time metering and the degraded-dispatch edge accounting
regression.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QueryError
from repro.forms import CompiledTrackingForm
from repro.geometry import BBox
from repro.mobility import MobilityDomain, grid_city, organic_city
from repro.network import FaultConfig, FaultInjector
from repro.obs import use_registry
from repro.query import (
    LOWER,
    STATIC,
    TRANSIENT,
    UPPER,
    CompiledQueryPlanner,
    QueryEngine,
    RangeQuery,
)
from repro.sampling import CompiledNetworkIndex, sampled_network
from repro.selection import QuadTreeSelector, SensorCandidates
from repro.trajectories import EventColumns, WorkloadConfig, generate_workload


def _deployment(style: str, budget: int, seed: int):
    """A (network, compiled form, workload) triple for cross-checks."""
    rng = np.random.default_rng(seed)
    if style == "grid":
        domain = MobilityDomain(
            grid_city(rows=6, cols=6, jitter=0.0, drop_fraction=0.0)
        )
    else:
        domain = MobilityDomain(organic_city(blocks=50, rng=rng))
    workload = generate_workload(
        domain,
        WorkloadConfig(n_trips=250, horizon_days=1.0, seed=seed + 1),
    )
    columns = EventColumns.from_events(domain, workload.events(domain))
    chosen = QuadTreeSelector().select(
        SensorCandidates.from_domain(domain),
        budget,
        np.random.default_rng(seed + 2),
    )
    network = sampled_network(domain, chosen)
    form = network.build_form(columns)
    assert isinstance(form, CompiledTrackingForm)
    return network, form, workload


@pytest.fixture(scope="module", params=[("grid", 6), ("grid", 12),
                                        ("organic", 8), ("organic", 16)],
                ids=lambda p: f"{p[0]}-{p[1]}")
def deployment(request):
    style, budget = request.param
    return _deployment(style, budget, seed=37)


def _battery(domain, horizon, seed, n_boxes=25):
    """Random rectangles × kinds × bounds, spanning hits and misses."""
    rng = np.random.default_rng(seed)
    bounds = domain.bounds
    queries = []
    for _ in range(n_boxes):
        w = rng.uniform(0.05, 1.1) * bounds.width
        h = rng.uniform(0.05, 1.1) * bounds.height
        cx = rng.uniform(bounds.min_x, bounds.max_x)
        cy = rng.uniform(bounds.min_y, bounds.max_y)
        box = BBox.from_center((cx, cy), w, h)
        t1 = rng.uniform(0.0, horizon * 0.6)
        t2 = t1 + rng.uniform(0.0, horizon * 0.4)
        for kind in (STATIC, TRANSIENT):
            for bound in (LOWER, UPPER):
                queries.append(RangeQuery(box, t1, t2, kind=kind, bound=bound))
    return queries


def _key(result):
    return (
        result.value,
        result.missed,
        result.regions,
        result.edges_accessed,
        result.nodes_accessed,
        result.hops,
    )


# ----------------------------------------------------------------------
# Compiled network index structure
# ----------------------------------------------------------------------
class TestCompiledNetworkIndex:
    def test_region_partition_matches_dicts(self, deployment):
        network, _, _ = deployment
        index = network.compiled_index()
        assert index is network.compiled_index()  # cached
        junctions = network.domain.junctions
        for i, junction in enumerate(junctions):
            region = int(index.region_of_junction[i])
            assert junction in network.region_junctions(region)
        for region in range(index.n_regions):
            members = network.region_junctions(region)
            assert int(index.region_size[region]) == len(members)
            lo, hi = index.rj_offsets[region], index.rj_offsets[region + 1]
            csr = {junctions[j] for j in index.rj_junctions[lo:hi]}
            assert csr == set(members)

    def test_region_walls_roundtrip(self, deployment):
        network, _, _ = deployment
        index = network.compiled_index()
        interner = network.domain.edge_interner
        for region in range(index.n_regions):
            if region == index.ext_region:
                continue
            lo, hi = index.rw_offsets[region], index.rw_offsets[region + 1]
            decoded = set()
            for eid, sign in zip(index.rw_wall_ids[lo:hi],
                                 index.rw_signs[lo:hi]):
                u, v = interner.edge(int(eid))
                decoded.add((u, v) if sign > 0 else (v, u))
            expected = {
                tuple(edge) for edge in network.region_boundary([region])
            }
            assert decoded == expected

    def test_wall_owner_table_matches_network(self, deployment):
        network, _, _ = deployment
        index = network.compiled_index()
        interner = network.domain.edge_interner
        for wall in network.walls:
            eid, _ = interner.intern(*wall)
            lo, hi = index.wo_offsets[eid], index.wo_offsets[eid + 1]
            owners = set(int(s) for s in index.wo_sensors[lo:hi])
            assert owners == set(network.wall_sensors(*wall))


# ----------------------------------------------------------------------
# Bbox index
# ----------------------------------------------------------------------
class TestBboxIndex:
    def test_ids_match_set_lookup(self, deployment):
        network, _, _ = deployment
        domain = network.domain
        rng = np.random.default_rng(5)
        bounds = domain.bounds
        for _ in range(30):
            w = rng.uniform(0.0, 1.2) * bounds.width
            h = rng.uniform(0.0, 1.2) * bounds.height
            box = BBox.from_center(
                (rng.uniform(bounds.min_x, bounds.max_x),
                 rng.uniform(bounds.min_y, bounds.max_y)), w, h,
            )
            ids = domain.junction_ids_in_bbox(box)
            assert list(ids) == sorted(ids)
            named = {domain.junctions[i] for i in ids}
            assert named == domain.junctions_in_bbox(box)

    def test_empty_bbox(self, deployment):
        network, _, _ = deployment
        domain = network.domain
        far = BBox(1e6, 1e6, 1e6 + 1, 1e6 + 1)
        assert len(domain.junction_ids_in_bbox(far)) == 0
        assert domain.junctions_in_bbox(far) == set()


# ----------------------------------------------------------------------
# Planner equivalence: the randomized cross-check
# ----------------------------------------------------------------------
class TestPlannerEquivalence:
    @pytest.mark.parametrize("static_eval", ["end", "start", "min"])
    def test_execute_matches_python(self, deployment, static_eval):
        network, form, workload = deployment
        compiled = QueryEngine(
            network, form, planner="compiled", static_eval=static_eval
        )
        python = QueryEngine(
            network, form, planner="python", static_eval=static_eval
        )
        assert compiled.planner_in_use == "compiled"
        assert python.planner_in_use == "python"
        queries = _battery(network.domain, workload.horizon, seed=23)
        answered = 0
        missed = 0
        for query in queries:
            a = compiled.execute(query)
            b = python.execute(query)
            assert _key(a) == _key(b)
            answered += not a.missed
            missed += a.missed
        # The battery must actually exercise both outcomes.
        assert answered > 0 and missed > 0

    def test_execute_batch_matches_python_and_single(self, deployment):
        network, form, workload = deployment
        compiled = QueryEngine(network, form, planner="compiled")
        python = QueryEngine(network, form, planner="python")
        queries = _battery(network.domain, workload.horizon, seed=29)
        batch_c = compiled.execute_batch(queries)
        batch_p = python.execute_batch(queries)
        singles = compiled.execute_many(queries)
        for a, b, s in zip(batch_c, batch_p, singles):
            assert _key(a) == _key(b) == _key(s)

    def test_auto_resolution(self, deployment):
        network, form, _ = deployment
        assert QueryEngine(network, form).planner_in_use == "compiled"

        class NotIdNative:
            def net_until(self, edge, t):
                return 0

            def net_between(self, edge, t1, t2):
                return 0

        assert (
            QueryEngine(network, NotIdNative()).planner_in_use == "python"
        )

    def test_compiled_planner_on_legacy_store(self, deployment):
        """Forcing the compiled planner on a non-id-native store decodes
        the chain and still matches the python path exactly."""
        network, form, workload = deployment
        legacy = network.build_form_loop(
            workload.events(network.domain)
        )
        compiled = QueryEngine(network, legacy, planner="compiled")
        python = QueryEngine(network, legacy, planner="python")
        for query in _battery(network.domain, workload.horizon, seed=31,
                              n_boxes=8):
            assert _key(compiled.execute(query)) == _key(python.execute(query))

    def test_unknown_planner_rejected(self, deployment):
        network, form, _ = deployment
        with pytest.raises(QueryError):
            QueryEngine(network, form, planner="jit")


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
class TestPlannerEdgeCases:
    def test_empty_bbox_misses_identically(self, deployment):
        network, form, _ = deployment
        far = BBox(1e6, 1e6, 1e6 + 1, 1e6 + 1)
        for bound in (LOWER, UPPER):
            query = RangeQuery(far, 0.0, 1.0, bound=bound)
            a = QueryEngine(network, form, planner="compiled").execute(query)
            b = QueryEngine(network, form, planner="python").execute(query)
            assert a.missed and b.missed
            assert _key(a) == _key(b)

    def test_ext_touching_rectangle(self, deployment):
        """A rectangle covering the whole domain touches the EXT region:
        the upper bound misses, the lower bound selects every interior
        region — identically on both planners."""
        network, form, _ = deployment
        bounds = network.domain.bounds
        whole = BBox(bounds.min_x - 1, bounds.min_y - 1,
                     bounds.max_x + 1, bounds.max_y + 1)
        compiled = QueryEngine(network, form, planner="compiled")
        python = QueryEngine(network, form, planner="python")
        upper = RangeQuery(whole, 0.0, 1.0, bound=UPPER)
        a, b = compiled.execute(upper), python.execute(upper)
        assert a.missed and b.missed
        lower = RangeQuery(whole, 0.0, 1.0, bound=LOWER)
        a, b = compiled.execute(lower), python.execute(lower)
        assert _key(a) == _key(b)
        assert not a.missed
        assert network.ext_region not in a.regions

    def test_single_region_network(self):
        """The minimum deployment (one logical region besides EXT)."""
        network, form, workload = _deployment("grid", 2, seed=51)
        compiled = QueryEngine(network, form, planner="compiled")
        python = QueryEngine(network, form, planner="python")
        for query in _battery(network.domain, workload.horizon, seed=3,
                              n_boxes=10):
            assert _key(compiled.execute(query)) == _key(python.execute(query))

    def test_boundary_rejects_ext_region(self, deployment):
        network, form, _ = deployment
        planner = CompiledQueryPlanner(network)
        with pytest.raises(QueryError):
            planner.boundary((network.ext_region,))


# ----------------------------------------------------------------------
# Id-native integration and the LRU boundary cache
# ----------------------------------------------------------------------
class TestIdNativeIntegration:
    def test_matches_per_edge_sums(self, deployment):
        network, form, workload = deployment
        planner = CompiledQueryPlanner(network)
        regions = tuple(
            r for r in range(network.region_count)
            if r != network.ext_region
        )[:3]
        chain = planner.boundary(regions)
        edges = planner.decode_edges(chain)
        t1, t2 = workload.horizon * 0.25, workload.horizon * 0.75
        assert form.integrate_until_ids(
            chain.wall_ids, chain.signs, t2
        ) == sum(form.net_until(edge, t2) for edge in edges)
        assert form.integrate_between_ids(
            chain.wall_ids, chain.signs, t1, t2
        ) == sum(form.net_between(edge, t1, t2) for edge in edges)

    def test_inverted_interval_rejected(self, deployment):
        network, form, _ = deployment
        planner = CompiledQueryPlanner(network)
        chain = planner.boundary(
            tuple(r for r in range(network.region_count)
                  if r != network.ext_region)[:1]
        )
        with pytest.raises(QueryError):
            form.integrate_between_ids(chain.wall_ids, chain.signs, 5.0, 1.0)

    def test_decode_edges_oriented(self, deployment):
        network, form, workload = deployment
        planner = CompiledQueryPlanner(network)
        regions = (next(r for r in range(network.region_count)
                        if r != network.ext_region),)
        chain = planner.boundary(regions)
        edges = planner.decode_edges(chain)
        assert planner.decode_edges(chain) == edges
        assert {tuple(e) for e in edges} == {
            tuple(e) for e in network.region_boundary(regions)
        }


class TestBoundaryCacheLRU:
    def _chains(self, planner, network, n):
        regions = [r for r in range(network.region_count)
                   if r != network.ext_region]
        if len(regions) < n:
            return []  # too few distinct chains; callers skip
        return [planner.boundary(tuple(regions[:take]))
                for take in range(1, n + 1)]

    def test_cap_evicts_least_recent(self, deployment):
        network, _, workload = deployment
        columns = EventColumns.from_events(
            network.domain, workload.events(network.domain)
        )
        observed = columns.filter_edges(network._wall_lookup())
        with use_registry() as registry:
            form = CompiledTrackingForm(
                columns.interner, observed.edge_id, observed.direction,
                observed.t, boundary_cache_size=2,
            )
            assert form._boundary_cache_size == 2
            planner = CompiledQueryPlanner(network)
            chains = self._chains(planner, network, 3)
            if len(chains) < 3:
                pytest.skip("network too small for eviction test")
            # A chain is admitted on its second touch.
            for chain in chains:
                for _ in range(2):
                    form.integrate_until_ids(chain.wall_ids, chain.signs, 1.0)
            assert len(form._boundaries) == 2
            assert registry.value(
                "repro_csr_boundary_cache_total", outcome="evict"
            ) == 1
            # Least-recent (chains[0]) was evicted and is a stranger
            # again: ranked on its next touch, compiled on the one after.
            compiles = registry.value(
                "repro_csr_boundary_cache_total", outcome="compile"
            )
            for again in (0, 1):
                form.integrate_until_ids(
                    chains[0].wall_ids, chains[0].signs, 1.0
                )
                assert registry.value(
                    "repro_csr_boundary_cache_total", outcome="compile"
                ) == compiles + again

    def test_hit_refreshes_recency(self, deployment):
        network, _, workload = deployment
        columns = EventColumns.from_events(
            network.domain, workload.events(network.domain)
        )
        observed = columns.filter_edges(network._wall_lookup())
        with use_registry() as registry:
            form = CompiledTrackingForm(
                columns.interner, observed.edge_id, observed.direction,
                observed.t, boundary_cache_size=2,
            )
            planner = CompiledQueryPlanner(network)
            chains = self._chains(planner, network, 3)
            if len(chains) < 3:
                pytest.skip("network too small for eviction test")
            a, b, c = chains
            for chain in (a, a, b, b):  # second touches admit a, then b
                form.integrate_until_ids(chain.wall_ids, chain.signs, 1.0)
            form.integrate_until_ids(a.wall_ids, a.signs, 1.0)  # refresh a
            for _ in range(2):  # admitting c evicts b
                form.integrate_until_ids(c.wall_ids, c.signs, 1.0)
            assert registry.value(
                "repro_csr_boundary_cache_total", outcome="evict"
            ) == 1
            compiles = registry.value(
                "repro_csr_boundary_cache_total", outcome="compile"
            )
            hits = registry.value(
                "repro_csr_boundary_cache_total", outcome="hit"
            )
            form.integrate_until_ids(a.wall_ids, a.signs, 1.0)
            assert registry.value(
                "repro_csr_boundary_cache_total", outcome="compile"
            ) == compiles  # a still cached
            assert registry.value(
                "repro_csr_boundary_cache_total", outcome="hit"
            ) == hits + 1

    def _fresh_form(self, network, workload, **kwargs):
        columns = EventColumns.from_events(
            network.domain, workload.events(network.domain)
        )
        observed = columns.filter_edges(network._wall_lookup())
        return CompiledTrackingForm(
            columns.interner, observed.edge_id, observed.direction,
            observed.t, **kwargs,
        )

    @staticmethod
    def _compiles(registry):
        return registry.value(
            "repro_csr_boundary_cache_total", outcome="compile"
        )

    def test_second_touch_promotes(self, deployment):
        network, _, workload = deployment
        with use_registry() as registry:
            form = self._fresh_form(network, workload)
            chain = self._chains(CompiledQueryPlanner(network), network, 1)[0]
            ids, signs = chain.wall_ids, chain.signs
            t = workload.horizon / 2
            first = form.integrate_until_ids(ids, signs, t)  # ranked
            assert len(form._boundaries) == 0
            assert self._compiles(registry) == 0
            second = form.integrate_until_ids(ids, signs, t)  # promoted
            assert len(form._boundaries) == 1
            assert self._compiles(registry) == 1
            third = form.integrate_between_ids(ids, signs, 0.0, t)  # hit
            assert self._compiles(registry) == 1
            assert registry.value(
                "repro_csr_boundary_cache_total", outcome="hit"
            ) == 1
            assert first == second == third

    def test_direct_compile_is_unconditional(self, deployment):
        network, _, workload = deployment
        with use_registry() as registry:
            form = self._fresh_form(network, workload)
            chain = self._chains(CompiledQueryPlanner(network), network, 1)[0]
            times, prefix = form.compile_boundary_ids(
                chain.wall_ids, chain.signs
            )
            assert len(prefix) == len(times) + 1
            assert len(form._boundaries) == 1
            assert self._compiles(registry) == 1
            # The very first integration is then already a hit.
            form.integrate_until_ids(chain.wall_ids, chain.signs, 1.0)
            assert self._compiles(registry) == 1
            assert registry.value(
                "repro_csr_boundary_cache_total", outcome="hit"
            ) == 1

    def test_cold_min_query_is_one_touch(self, deployment):
        """``static_eval="min"`` evaluates both endpoints from one
        touch of the chain: a cold query ranks and compiles nothing."""
        network, reference_form, workload = deployment
        battery = [
            query for query in _battery(
                network.domain, workload.horizon, seed=97, n_boxes=12
            ) if query.kind == STATIC
        ]
        expected = QueryEngine(
            network, reference_form, planner="python", static_eval="min"
        ).execute_many(battery)
        assert not all(result.missed for result in expected)
        with use_registry() as registry:
            form = self._fresh_form(network, workload)
            engine = QueryEngine(
                network, form, planner="compiled", static_eval="min"
            )
            for query, want in zip(battery, expected):
                form._seen.clear()  # every query meets a cold chain
                assert _key(engine.execute(query)) == _key(want)
            assert self._compiles(registry) == 0
            assert len(form._boundaries) == 0

    def test_zero_cap_disables_caching(self, deployment):
        network, _, workload = deployment
        columns = EventColumns.from_events(
            network.domain, workload.events(network.domain)
        )
        observed = columns.filter_edges(network._wall_lookup())
        form = CompiledTrackingForm(
            columns.interner, observed.edge_id, observed.direction,
            observed.t, boundary_cache_size=0,
        )
        planner = CompiledQueryPlanner(network)
        chain = self._chains(planner, network, 1)[0]
        v1 = form.integrate_until_ids(chain.wall_ids, chain.signs, 1.0)
        v2 = form.integrate_until_ids(chain.wall_ids, chain.signs, 1.0)
        assert v1 == v2
        assert len(form._boundaries) == 0


# ----------------------------------------------------------------------
# Miss metering and degraded-dispatch accounting (regressions)
# ----------------------------------------------------------------------
class TestMissMetering:
    def test_single_miss_charges_seconds(self, deployment):
        network, form, _ = deployment
        far = BBox(1e6, 1e6, 1e6 + 1, 1e6 + 1)
        with use_registry() as registry:
            engine = QueryEngine(network, form)
            result = engine.execute(RangeQuery(far, 0.0, 1.0))
            assert result.missed
            assert registry.value("repro_query_misses_total",
                                  kind=STATIC, bound=LOWER) == 1
            total = registry.value("repro_query_seconds_total")
            assert total == pytest.approx(result.elapsed)
            assert total > 0.0

    def test_batch_misses_charge_seconds(self, deployment):
        network, form, workload = deployment
        far = BBox(1e6, 1e6, 1e6 + 1, 1e6 + 1)
        queries = [RangeQuery(far, 0.0, 1.0),
                   RangeQuery(far, 0.0, 1.0, bound=UPPER)]
        with use_registry() as registry:
            engine = QueryEngine(network, form)
            results = engine.execute_batch(queries)
            assert all(r.missed for r in results)
            assert registry.value("repro_query_seconds_total") == (
                pytest.approx(sum(r.elapsed for r in results))
            )


class TestDegradedAccounting:
    @pytest.fixture()
    def answered_query(self, deployment):
        network, form, workload = deployment
        engine = QueryEngine(network, form)
        bounds = network.domain.bounds
        for shrink in (0.8, 0.7, 0.6, 0.9):
            box = BBox.from_center(bounds.center,
                                   bounds.width * shrink,
                                   bounds.height * shrink)
            query = RangeQuery(box, 0.0, workload.horizon * 0.6)
            result = engine.execute(query)
            if not result.missed and result.nodes_accessed >= 2:
                return query, result
        pytest.skip("no answered multi-sensor query at this deployment")

    @pytest.mark.parametrize("planner", ["compiled", "python"])
    def test_lost_walls_not_charged(self, deployment, answered_query,
                                    planner):
        network, form, _ = deployment
        query, plain = answered_query
        injector = FaultInjector(
            FaultConfig(), network.sensors, crashed=network.sensors
        )
        with use_registry() as registry:
            result = QueryEngine(
                network, form, planner=planner, faults=injector
            ).execute(query)
            d = result.degradation
            assert d is not None and d.lost_walls > 0
            reached = d.boundary_walls - d.lost_walls
            # Only reached walls joined the aggregate: charge exactly
            # those, in the result fields and in the metric.
            assert result.edges_accessed == reached
            assert result.hops == reached
            assert registry.value(
                "repro_query_edges_accessed_total"
            ) == reached
        assert plain.edges_accessed == d.boundary_walls

    @pytest.mark.parametrize("planner", ["compiled", "python"])
    def test_degraded_results_planner_equivalent(self, deployment,
                                                 answered_query, planner):
        """Both planners produce the same degraded value, bound and
        accounting under an identical fault schedule."""
        network, form, _ = deployment
        query, _ = answered_query
        results = {}
        for mode in ("compiled", "python"):
            injector = FaultInjector(
                FaultConfig(), network.sensors,
                crashed=network.sensors[::2],
            )
            results[mode] = QueryEngine(
                network, form, planner=mode, faults=injector
            ).execute(query)
        a, b = results["compiled"], results["python"]
        assert _key(a) == _key(b)
        if a.degradation is not None:
            assert b.degradation is not None
            assert a.degradation.lost_walls == b.degradation.lost_walls
            assert a.degradation.error_bound == b.degradation.error_bound

"""Unit tests for the public InNetworkFramework facade."""

import gc
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from test_query_planner import _battery, _key

from repro import FrameworkConfig, InNetworkFramework
from repro.errors import ConfigurationError, QueryError
from repro.evaluation import SMALL_CONFIG
from repro.geometry import BBox
from repro.mobility import MobilityDomain, organic_city
from repro.obs import use_registry
from repro.query import STATIC, TRANSIENT, UPPER, QueryEngine, RangeQuery
from repro.sampling import full_network
from repro.trajectories import (
    CrossingEvent,
    EventColumns,
    WorkloadConfig,
    generate_workload,
)


@pytest.fixture(scope="module")
def framework(request):
    organic_domain = request.getfixturevalue("organic_domain")
    workload = request.getfixturevalue("workload")
    fw = InNetworkFramework(organic_domain)
    fw.deploy(FrameworkConfig(selector="quadtree", budget=20, seed=3))
    fw.ingest_trips(workload.trips)
    return fw


class TestConfig:
    def test_defaults_valid(self):
        FrameworkConfig()

    def test_unknown_selector(self):
        with pytest.raises(ConfigurationError):
            FrameworkConfig(selector="psychic")

    def test_unknown_store(self):
        with pytest.raises(ConfigurationError):
            FrameworkConfig(store="csv")

    def test_tiny_budget(self):
        with pytest.raises(ConfigurationError):
            FrameworkConfig(budget=1)

    def test_bad_connectivity(self):
        with pytest.raises(ConfigurationError):
            FrameworkConfig(connectivity="teleport")


class TestLifecycle:
    def test_from_road_graph(self):
        road = organic_city(blocks=40, rng=np.random.default_rng(0))
        fw = InNetworkFramework.from_road_graph(road)
        assert fw.domain.block_count > 0

    def test_query_before_deploy_rejected(self, organic_domain):
        fw = InNetworkFramework(organic_domain)
        with pytest.raises(QueryError):
            fw.query(BBox(0, 0, 5, 5), 0, 1)

    def test_exact_before_ingest_rejected(self, organic_domain):
        fw = InNetworkFramework(organic_domain)
        with pytest.raises(QueryError):
            fw.query_exact(BBox(0, 0, 5, 5), 0, 1)

    def test_submodular_needs_history(self, organic_domain):
        fw = InNetworkFramework(organic_domain)
        with pytest.raises(ConfigurationError):
            fw.deploy(FrameworkConfig(selector="submodular", budget=10))

    def test_submodular_with_history(self, organic_domain, workload):
        fw = InNetworkFramework(organic_domain)
        fw.record_query_region(BBox(2, 2, 8, 8))
        fw.record_query_region(BBox(1, 1, 5, 5))
        network = fw.deploy(
            FrameworkConfig(selector="submodular", budget=30)
        )
        assert network.walls

    def test_redeploy_reingests(self, organic_domain, workload):
        fw = InNetworkFramework(organic_domain)
        fw.deploy(FrameworkConfig(selector="uniform", budget=10, seed=0))
        fw.ingest_trips(workload.trips[:50])
        fw.deploy(FrameworkConfig(selector="uniform", budget=15, seed=1))
        result = fw.query(BBox(1, 1, 9, 9), 0, workload.horizon / 2)
        assert result is not None  # store rebuilt after redeploy


class TestQuerying:
    def test_lower_bound_leq_exact_leq_upper(self, framework, workload):
        box = BBox(1.5, 1.5, 8.5, 8.5)
        t2 = 0.5 * workload.horizon
        lower = framework.query(box, 0.0, t2, bound="lower")
        upper = framework.query(box, 0.0, t2, bound="upper")
        exact = framework.query_exact(box, 0.0, t2)
        if not (lower.missed or upper.missed):
            assert lower.value <= exact.value <= upper.value

    def test_transient_kind(self, framework, workload):
        box = BBox(2, 2, 8, 8)
        result = framework.query(
            box, 0.2 * workload.horizon, 0.7 * workload.horizon,
            kind=TRANSIENT,
        )
        assert result is not None

    def test_deployed_fraction(self, framework):
        assert 0.0 < framework.network.size_fraction <= 1.0

    def test_storage_reporting(self, framework):
        assert framework.storage_bytes > 0

    def test_repr(self, framework):
        assert "InNetworkFramework" in repr(framework)


class TestFacadeEngine:
    """``fw.query`` keeps its default-dispatch engine for as long as
    what it was built from stands."""

    BOX = BBox(2, 2, 8, 8)

    @pytest.fixture()
    def fw(self, organic_domain, workload):
        fw = InNetworkFramework(organic_domain)
        fw.deploy(FrameworkConfig(selector="quadtree", budget=20, seed=3))
        fw.ingest_trips(workload.trips[:100])
        return fw

    def _engines_built(self, monkeypatch):
        built = []
        init = QueryEngine.__post_init__

        def counting(engine):
            built.append(engine)
            init(engine)

        monkeypatch.setattr(QueryEngine, "__post_init__", counting)
        return built

    def test_one_engine_serves_repeated_queries(
        self, fw, workload, monkeypatch
    ):
        built = self._engines_built(monkeypatch)
        first = fw.query(self.BOX, 0.0, 0.5 * workload.horizon)
        again = fw.query(self.BOX, 0.0, 0.5 * workload.horizon, bound="upper")
        assert len(built) == 1
        assert _key(first) == _key(fw.engine().execute(first.query))
        assert not again.missed or again.value == 0

    def test_dispatch_strategy_still_reaches_the_engine(
        self, fw, workload, monkeypatch
    ):
        built = self._engines_built(monkeypatch)
        t2 = 0.5 * workload.horizon
        fw.query(self.BOX, 0.0, t2)
        with pytest.raises(QueryError, match="dispatch_strategy"):
            fw.query(self.BOX, 0.0, t2, dispatch_strategy="carrier_pigeon")
        fw.query(self.BOX, 0.0, t2, dispatch_strategy="server_fanout")
        fw.query(self.BOX, 0.0, t2, dispatch_strategy="server_fanout")
        assert [e.dispatch_strategy for e in built] == [
            "perimeter_walk", "carrier_pigeon", "server_fanout"
        ]

    def test_rebuilt_when_the_store_or_the_registry_changes(
        self, fw, workload, monkeypatch
    ):
        built = self._engines_built(monkeypatch)
        t2 = 0.5 * workload.horizon
        before = fw.query(self.BOX, 0.0, t2)
        fw.ingest_trips(workload.trips[100:])  # rebinds the store
        after = fw.query(self.BOX, 0.0, t2)
        assert len(built) == 2 and built[1].store is not built[0].store
        assert _key(after) == _key(fw.engine().execute(after.query))
        assert before.query == after.query
        with use_registry() as registry:
            fw.query(self.BOX, 0.0, t2)
            assert sum(
                value for name, _, value in registry.dump()["counters"]
                if name == "repro_queries_total"
            ) == 1
        assert len(built) == 4  # one for the registry, one for the check
        fw.deploy(FrameworkConfig(selector="quadtree", budget=12, seed=3))
        redeployed = fw.query(self.BOX, 0.0, t2)
        assert built[-1].network is fw.network
        assert _key(redeployed) == _key(fw.engine().execute(after.query))

    def test_streaming_appends_keep_the_engine_and_faults_bypass_it(
        self, organic_domain, workload, monkeypatch
    ):
        fw = InNetworkFramework(organic_domain)
        fw.deploy(
            FrameworkConfig(
                selector="quadtree", budget=20, seed=3, streaming=True
            )
        )
        built = self._engines_built(monkeypatch)
        t2 = 0.5 * workload.horizon
        fw.ingest_trips(workload.trips[:100])
        few = fw.query(self.BOX, 0.0, t2)
        fw.ingest_trips(workload.trips[100:])  # same store, appended to
        more = fw.query(self.BOX, 0.0, t2)
        assert len(built) == 1
        assert _key(more) == _key(fw.engine().execute(more.query))
        assert few.regions == more.regions
        fw.query(self.BOX, 0.0, t2, faults=fw.fault_injector())
        assert len(built) == 3 and built[-1].faults is not None
        fw.close()
        with pytest.raises(QueryError):
            fw.query(self.BOX, 0.0, t2)

    @pytest.mark.parametrize("streaming", [False, True])
    def test_query_exact_keeps_its_engine(
        self, organic_domain, workload, monkeypatch, streaming
    ):
        """``k`` exact queries build one engine; an ingest between two
        calls (a rebuilt or a dropped reference form) and a registry
        swap each get a fresh one, and the answer after the ingest is
        a fresh deployment's."""
        t2 = 0.5 * workload.horizon
        whole = InNetworkFramework(organic_domain)
        whole.ingest_trips(workload.trips)
        want = [whole.query_exact(self.BOX, 0.0, t2, kind=kind)
                for kind in (STATIC, TRANSIENT)]
        fw = InNetworkFramework(organic_domain)
        fw.deploy(FrameworkConfig(
            selector="quadtree", budget=20, seed=3, streaming=streaming
        ))
        fw.ingest_trips(workload.trips[:100])
        built = self._engines_built(monkeypatch)
        few = [fw.query_exact(self.BOX, 0.0, t2, kind=kind)
               for kind in (STATIC, TRANSIENT) * 3]
        assert len(built) == 1 and built[0].access_mode == "flood"
        fw.ingest_trips(workload.trips[100:])
        more = [fw.query_exact(self.BOX, 0.0, t2, kind=kind)
                for kind in (STATIC, TRANSIENT)]
        assert len(built) == 2 and built[1].store is not built[0].store
        assert [r.value for r in more] == [r.value for r in want]
        assert [r.value for r in more] != [r.value for r in few[:2]]
        with use_registry():
            fw.query_exact(self.BOX, 0.0, t2)
        assert len(built) == 3
        fw.close()
        assert fw._exact_engine is None


class TestLearnedStores:
    @pytest.mark.parametrize(
        "store", ["linear", "polynomial", "piecewise", "histogram"]
    )
    def test_learned_store_answers_queries(
        self, organic_domain, workload, store
    ):
        fw = InNetworkFramework(organic_domain)
        fw.deploy(
            FrameworkConfig(selector="quadtree", budget=16,
                            store=store, seed=3)
        )
        fw.ingest_trips(workload.trips)
        result = fw.query(BBox(1, 1, 9, 9), 0.0, 0.5 * workload.horizon)
        assert not result.missed

    def test_learned_store_smaller_than_exact(
        self, organic_domain, workload
    ):
        exact_fw = InNetworkFramework(organic_domain)
        exact_fw.deploy(
            FrameworkConfig(selector="quadtree", budget=16, seed=3)
        )
        exact_fw.ingest_trips(workload.trips)

        learned_fw = InNetworkFramework(organic_domain)
        learned_fw.deploy(
            FrameworkConfig(selector="quadtree", budget=16,
                            store="linear", seed=3)
        )
        learned_fw.ingest_trips(workload.trips)
        assert learned_fw.storage_bytes < exact_fw.storage_bytes


class TestOneIngestPath:
    """However the event list is cut into ``ingest_events`` windows,
    every deployment kind answers the same."""

    BASE = FrameworkConfig(selector="quadtree", budget=20, seed=3)
    CONFIGS = {
        "plain": BASE,
        "compress": replace(BASE, compress=True, tick_bits=4),
        "streaming": replace(BASE, streaming=True, compact_every=512),
        "streaming+compress": replace(
            BASE, streaming=True, compact_every=512,
            compress=True, tick_bits=4,
        ),
    }

    @pytest.fixture(scope="class")
    def arrivals(self, events):
        """Shuffled arrival; every third timestamp snapped to a whole
        half minute, so ties abound (the rest stay off the tick grid)."""
        tied = [
            CrossingEvent(e.tail, e.head, 30.0 * round(e.t / 30.0))
            if i % 3 == 0 else e
            for i, e in enumerate(events)
        ]
        random.Random(5).shuffle(tied)
        return tied

    @pytest.fixture(scope="class")
    def battery(self, organic_domain, workload, arrivals):
        """Random boxes, plus one probe that tells raw from quantized
        times: a box around one junction, asked for the instant
        between an arrival there and that arrival's tick."""
        battery = _battery(organic_domain, workload.horizon, seed=41, n_boxes=6)
        event = max(
            (e for e in arrivals if e.head in organic_domain.junction_index),
            key=lambda e: abs(e.t - round(e.t * 16) / 16),
        )
        snapped = round(event.t * 16) / 16
        assert snapped != event.t
        box = BBox.from_center(organic_domain.position(event.head), 1e-6, 1e-6)
        battery.append(RangeQuery(box, 0.0, (event.t + snapped) / 2))
        return battery

    @staticmethod
    def _answers(fw, battery):
        out = [_key(fw.query(q.box, q.t1, q.t2, q.kind, q.bound))
               for q in battery]
        out += [_key(fw.query_exact(q.box, q.t1, q.t2, q.kind))
                for q in battery]
        fw.close()
        return out

    def _ingested(self, domain, config, arrivals, windows):
        fw = InNetworkFramework(domain)
        fw.deploy(config)
        size = -(-len(arrivals) // windows)
        for start in range(0, len(arrivals), size):
            fw.ingest_events(arrivals[start:start + size])
        return fw

    @pytest.fixture(scope="class")
    def whole(self, organic_domain, arrivals, battery):
        """Per deployment kind, the answers after one bulk ingest."""
        return {
            name: self._answers(
                self._ingested(organic_domain, config, arrivals, 1), battery
            )
            for name, config in self.CONFIGS.items()
        }

    @pytest.mark.parametrize("windows", [3, 40])
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_windows_do_not_change_answers(
        self, organic_domain, arrivals, battery, whole, name, windows
    ):
        fw = self._ingested(
            organic_domain, self.CONFIGS[name], arrivals, windows
        )
        assert self._answers(fw, battery) == whole[name]

    def test_streaming_answers_as_batch(self, whole):
        assert whole["streaming"] == whole["plain"]
        assert whole["streaming+compress"] == whole["compress"]
        # Quantization is visible: the grid test is not vacuous.
        assert whole["compress"] != whole["plain"]

    @pytest.mark.parametrize(
        "first, then", [("plain", "compress"), ("compress", "plain"),
                        ("streaming+compress", "streaming")],
    )
    def test_redeploy_may_flip_compress_between_ingests(
        self, organic_domain, arrivals, battery, whole, first, then
    ):
        """The log keeps raw times; quantization is the deployed
        config's, applied when the log is read."""
        half = len(arrivals) // 2
        fw = InNetworkFramework(organic_domain)
        fw.deploy(self.CONFIGS[first])
        fw.ingest_events(arrivals[:half])
        fw.deploy(self.CONFIGS[then])
        fw.ingest_events(arrivals[half:])
        assert self._answers(fw, battery) == whole[then]

    def test_batch_ingests_convert_each_event_once(
        self, organic_domain, arrivals, monkeypatch
    ):
        """A count, not a timing: k batch ingests of n events convert
        k * n events (re-columnarising the cumulative list each time
        would convert n * k * (k + 1) / 2)."""
        converted = []
        from_events = EventColumns.from_events.__func__

        def counting(cls, domain, events):
            columns = from_events(cls, domain, events)
            converted.append(len(columns))
            return columns

        monkeypatch.setattr(
            EventColumns, "from_events", classmethod(counting)
        )
        k, n = 5, len(arrivals) // 5
        fw = InNetworkFramework(organic_domain)
        fw.deploy(self.BASE)
        for i in range(k):
            fw.ingest_events(arrivals[i * n:(i + 1) * n])
        assert sum(converted) == k * n
        fw.close()


class TestReferenceOnDemand:
    """The exact reference form is the evaluation's ground truth, not
    part of the deployment: no ingest builds it, the first
    ``query_exact`` after an ingest or a re-deploy does."""

    CONFIGS = {
        "batch": TestOneIngestPath.BASE,
        "compress": TestOneIngestPath.CONFIGS["compress"],
        "streaming": TestOneIngestPath.CONFIGS["streaming"],
    }

    @staticmethod
    def _oracle(domain, config, events, battery):
        """``query_exact``'s answers from a reference form built afresh
        from ``full_network(domain)`` over the (quantized) events."""
        columns = EventColumns.from_events(domain, events)
        if config.compress:
            columns = columns.quantized(config.tick_bits)
        full = full_network(domain)
        engine = QueryEngine(
            full, full.build_form(columns), access_mode="flood"
        )
        return [_key(engine.execute(replace(q, bound="lower")))
                for q in battery]

    @staticmethod
    def _exact(fw, battery):
        return [_key(fw.query_exact(q.box, q.t1, q.t2, q.kind))
                for q in battery]

    @pytest.fixture(scope="class")
    def battery(self, organic_domain, workload, events):
        """Random boxes, plus a probe that tells raw from quantized
        times (as in :class:`TestOneIngestPath`): an arrival at a
        junction that no other event shares the time of (an entry or
        exit walk would leave the junction at once)."""
        battery = _battery(organic_domain, workload.horizon, seed=43, n_boxes=4)
        shared = Counter(e.t for e in events)
        event = max(
            (e for e in events
             if e.head in organic_domain.junction_index and shared[e.t] == 1),
            key=lambda e: abs(e.t - round(e.t * 16) / 16),
        )
        box = BBox.from_center(organic_domain.position(event.head), 1e-6, 1e-6)
        snapped = round(event.t * 16) / 16
        battery.append(RangeQuery(box, 0.0, (event.t + snapped) / 2))
        return battery

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_built_when_first_read_and_dropped_by_every_ingest(
        self, organic_domain, events, battery, name
    ):
        config = self.CONFIGS[name]
        half = len(events) // 2
        fw = InNetworkFramework(organic_domain)
        fw.deploy(config)
        fw.ingest_events(events[:half])
        assert fw._full is None and fw._full_form is None
        assert self._exact(fw, battery) == self._oracle(
            organic_domain, config, events[:half], battery
        )
        assert fw._full_form is not None
        fw.ingest_events(events[half:])
        assert fw._full_form is None and fw._exact_engine is None
        assert self._exact(fw, battery) == self._oracle(
            organic_domain, config, events, battery
        )
        fw.close()

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_redeploy_flipping_compress_drops_it(
        self, organic_domain, events, battery, name
    ):
        config = self.CONFIGS[name]
        flipped = replace(
            config, compress=not config.compress, tick_bits=4
        )
        fw = InNetworkFramework(organic_domain)
        fw.deploy(config)
        fw.ingest_events(events)
        before = self._exact(fw, battery)
        fw.deploy(flipped)
        assert fw._full_form is None and fw._exact_engine is None
        after = self._exact(fw, battery)
        assert after == self._oracle(
            organic_domain, flipped, events, battery
        )
        # Quantization is visible: the flip is not vacuous.
        assert after != before
        fw.close()

    def test_exact_before_ingest_on_a_deployment_rejected(
        self, organic_domain, events
    ):
        fw = InNetworkFramework(organic_domain)
        fw.deploy(self.CONFIGS["batch"])
        with pytest.raises(QueryError):
            fw.query_exact(organic_domain.bounds, 0.0, 1.0)
        fw.ingest_events(events[:10])
        fw.query_exact(organic_domain.bounds, 0.0, 1.0)

    def test_ingest_retains_few_bytes_an_event(self):
        """What ``ingest_events`` keeps at ``SMALL_CONFIG``: the log
        window (13 B an event) and the deployed form, about 24 B an
        event, under 30.  Building the reference form on ingest as
        well kept about 44."""
        cfg = SMALL_CONFIG
        domain = MobilityDomain(
            organic_city(blocks=cfg.blocks, rng=np.random.default_rng(13))
        )
        events = generate_workload(domain, WorkloadConfig(
            n_trips=cfg.n_trips, horizon_days=cfg.horizon_days,
            mean_dwell=cfg.mean_dwell, seed=13,
        )).events(domain)
        fw = InNetworkFramework(domain)
        fw.deploy(FrameworkConfig(
            selector="quadtree", budget=round(0.256 * domain.block_count),
            seed=3,
        ))
        fw.ingest_events(events[:10])  # builds the network's indexes
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fw.ingest_events(events)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert retained <= 30 * len(events)
        fw.close()

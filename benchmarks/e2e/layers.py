"""Per-layer metrics of the traced run.

A layer is a module of ``src/repro``.  :func:`install` wraps the public
functions at each layer boundary (nothing inside the program changes);
:func:`layer_metrics` turns the recorded spans, the program's own
counters and a few probes into the metrics named under ``per_layer``
in ``BENCHMARK.json``.

Conventions: every ``*_s`` / ``*_us`` value is a **self time** (the
span minus its child spans), so layers add up instead of overlapping;
set-up layers are per set-up, query layers per call over the measured
traffic (phases ``traffic.*``), counts that grow with traffic are per
query.  A metric that does not apply to a workload reads 0.
"""

from __future__ import annotations

import pickle
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core import InNetworkFramework
from repro.core import framework as framework_module
from repro.evaluation import relative_error
from repro.forms import (
    CompiledTrackingForm,
    CompressedTrackingForm,
    EdgeCountSketch,
)
from repro.mobility import MobilityDomain
from repro.models import LinearModel, ModeledCountStore
from repro.obs import Instrumentation, Tracer
from repro.query import (
    CompiledQueryPlanner,
    QueryEngine,
    RangeQuery,
    ShardedQueryEngine,
)
from repro.sampling import SensorNetwork
from repro.selection import QuadTreeSelector
from repro.stream import StreamingEventStore
from repro.trajectories import EventColumns

from . import harness, workloads
from .trace import LAYER, PARENT, VALUE, Recorder

TRAFFIC = "traffic."

#: Chunks of the hot replay the probes time (each ``hot_chunk`` long),
#: and how often: the two sides of a probe alternate round by round.
PROBE_CHUNKS = 10
PROBE_ROUNDS = 3


def install(rec: Recorder) -> None:
    """Register a wrapper on the public function at every layer
    boundary the benchmark reports on."""

    def build_form_name(network: SensorNetwork, *args: Any, **kw: Any) -> str:
        full = network.name == "full"
        return "sampling.build_form_full" if full else "sampling.build_form"

    rec.wrap(MobilityDomain, "__init__", "mobility", "mobility.domain_build")
    rec.wrap(framework_module, "full_network", "sampling")
    rec.wrap(framework_module, "sampled_network", "sampling",
             "sampling.materialise")
    rec.wrap(QuadTreeSelector, "select", "selection")
    rec.wrap(SensorNetwork, "compiled_index", "sampling")
    rec.wrap(SensorNetwork, "build_form", "sampling", build_form_name)
    rec.wrap(EventColumns, "from_events", "trajectories",
             "trajectories.columnarize")
    rec.wrap(CompressedTrackingForm, "__init__", "forms.succinct",
             "forms.succinct.build")
    rec.wrap(EdgeCountSketch, "from_columns", "forms.sketch",
             "forms.sketch.build")
    for method in ("junction_ids", "region_ids", "chain_sensors", "integrate"):
        rec.wrap(CompiledQueryPlanner, method, "query.planner")
    rec.wrap(CompiledQueryPlanner, "boundary", "query.planner",
             measure=lambda chain: chain.size)
    rec.wrap(CompiledTrackingForm, "compile_boundary_ids", "forms",
             measure=lambda compiled: len(compiled[0]))
    for method in ("integrate_until_ids", "integrate_between_ids"):
        rec.wrap(CompiledTrackingForm, method, "forms", "forms.integrate")
        rec.wrap(StreamingEventStore, method, "stream", "stream.integrate")
        rec.wrap(EdgeCountSketch, method.replace("integrate", "estimate"),
                 "forms.sketch", "forms.sketch.estimate")
    rec.wrap(StreamingEventStore, "append_events", "stream")
    rec.wrap(StreamingEventStore, "compact", "stream")
    rec.wrap(QueryEngine, "execute", "query.engine")
    rec.wrap(QueryEngine, "execute_batch", "query.engine")
    for method in ("deploy", "ingest_events", "query", "query_exact", "close"):
        rec.wrap(InNetworkFramework, method, "core")


class WriteAmplification:
    """Events rewritten by compactions and block merges, from outside:
    a compaction listener plus ``describe()``, replaying the store's
    documented policy (newest block merged into its predecessor past
    ``max_blocks``)."""

    def __init__(self) -> None:
        self.rewritten = 0

    def attach(self, fw: InNetworkFramework) -> None:
        sizes: List[int] = []

        def listener(store: StreamingEventStore, phase: str) -> None:
            if phase != "swapped":
                return
            state = store.describe()
            new = state["block_events"] - sum(sizes)
            sizes.append(new)
            self.rewritten += new
            while len(sizes) > state["max_blocks"]:
                newest = sizes.pop()
                sizes[-1] += newest
                self.rewritten += sizes[-1]

        fw.streaming_store.on_compact(listener)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean_value(spans: Sequence[list]) -> float:
    values = [s[VALUE] for s in spans if s[VALUE] is not None]
    return float(np.mean(values)) if values else 0.0


def _quiet_traffic_s(passes: Sequence[workloads.Pass]) -> float:
    """Ingest and query wall time of the quiet pass (``harness.quiet``)."""
    total = float(harness.quiet([p.ingest for p in passes]).sum())
    for name in ("singles", "chunks"):
        rounds = [series for p in passes for series in getattr(p, name)]
        if rounds:
            total += float(harness.quiet(rounds).sum())
    return total


def layer_metrics(
    run: workloads.Run, rec: Recorder, amplification: WriteAmplification
) -> Dict[str, float]:
    """Every per-layer metric of one traced run."""
    spec, inputs, traffic = run.spec, run.inputs, run.traffic
    traced = [p for p in run.passes if p.traced]
    baseline = [p for p in run.passes if not p.traced]
    last = run.passes[-1]
    quality = run.quality
    n_events = len(inputs.events)
    # Queries of one pass, one at a time and batched.
    singles = sum(len(series) for series in last.singles)
    batched = len(traffic.batch) * len(last.chunks)

    # One set-up per traced pass.
    setups = max(len(traced), 1)
    stream_passes = len(traced) if spec.streaming else 0
    # The program's counters grow in untraced passes and the soak too.
    counters = {
        key: run.soak_counters[key] + sum(p.counters[key] for p in run.passes)
        for key in last.counters
    }
    counted_queries = (singles + batched) * len(run.passes) + len(traffic.soak)

    def per_setup(name: str) -> float:
        return rec.total_self(name=name, phase="setup") / setups

    def per_call_us(name: str) -> float:
        return rec.mean_self_us(name=name, phase=TRAFFIC)

    out: Dict[str, float] = dict(inputs.gen)
    # -- set-up ---------------------------------------------------------
    out["mobility.domain_build_s"] = per_setup("mobility.domain_build")
    out["sampling.full_network_s"] = per_setup("sampling.full_network")
    out["selection.select_s"] = per_setup("selection.select")
    out["sampling.materialise_s"] = per_setup("sampling.materialise")
    out["sampling.compiled_index_s"] = per_setup("sampling.compiled_index")
    out["core.deploy_s"] = per_setup("core.deploy")
    out["core.close_s"] = rec.total_self(name="core.close") / setups
    out["sampling.walls"] = float(len(run.fw.network.walls))
    out["sampling.regions"] = float(run.fw.network.region_count)
    out["sampling.observed_events"] = float(run.engine.store.total_events)
    # -- ingest ---------------------------------------------------------
    out["trajectories.columnarize_s"] = per_setup("trajectories.columnarize")
    out["sampling.build_form_s"] = per_setup("sampling.build_form")
    out["sampling.build_form_full_s"] = per_setup("sampling.build_form_full")
    out["forms.succinct.build_s"] = per_setup("forms.succinct.build")
    out["forms.sketch.build_s"] = per_setup("forms.sketch.build")
    # One full ingest of the event list per pass, bulk or streamed.
    out["core.ingest_s"] = (
        rec.total_self(name="core.ingest_events", phase="setup")
        + rec.total_self(name="core.ingest_events", phase=TRAFFIC)
    ) / setups
    # -- query.planner --------------------------------------------------
    for method in ("junction_ids", "region_ids", "boundary", "chain_sensors"):
        out[f"query.planner.{method}_us"] = per_call_us(
            f"query.planner.{method}"
        )
    out["query.planner.calls"] = _ratio(
        len(rec.select(layer="query.planner", phase=TRAFFIC)),
        (singles + batched) * len(traced),
    )
    out["query.planner.chain_len_mean"] = _mean_value(
        rec.select(name="query.planner.boundary", phase=TRAFFIC)
    )
    # -- forms ----------------------------------------------------------
    compiles = rec.select(name="forms.compile_boundary_ids", phase=TRAFFIC)
    out["forms.compile_boundary_us"] = per_call_us("forms.compile_boundary_ids")
    out["forms.compile_calls"] = _ratio(counters["compile"], counted_queries)
    out["forms.events_merged_per_compile"] = _mean_value(compiles)
    out["forms.boundary_cache_hit_rate"] = _ratio(
        counters["hit"], counters["hit"] + counters["compile"]
    )
    out["forms.boundary_cache_evictions"] = _ratio(
        counters["evict"], counted_queries
    )
    # The first pass shows the growth; later ones reuse freed memory.
    out["forms.boundary_cache_rss_mb"] = max(
        p.traffic_rss_mb for p in run.passes
    )
    out["forms.integrate_us"] = per_call_us("forms.integrate")
    out["forms.searchsorted_calls"] = _ratio(
        counters["searchsorted"], counted_queries
    )
    # -- forms.succinct / forms.sketch ---------------------------------
    stores = {r["store"]: r for r in last.storage["stores"]}
    compressed = stores.get("CompressedTrackingForm")
    out["forms.succinct.bytes_per_event"] = (
        _ratio(compressed["total_bytes"], compressed["events"])
        if compressed else 0.0
    )
    attempts = counters["sketch_hit"] + counters["sketch_fallback"]
    estimates = rec.select(layer="forms.sketch", phase=TRAFFIC)
    # estimate_between nests two estimate_until spans: one attempt.
    outermost = sum(
        1 for s in estimates if rec.spans[s[PARENT]][LAYER] != "forms.sketch"
    )
    out["forms.sketch.estimate_us"] = 1e6 * _ratio(
        sum(rec.self_time(s) for s in estimates), outermost
    )
    out["forms.sketch.hit_share"] = _ratio(counters["sketch_hit"], attempts)
    sketch_bounds = [
        r.degradation.error_bound
        for r in quality.results if workloads.sketch_served(r)
    ]
    out["forms.sketch.bound_mean"] = (
        float(np.mean(sketch_bounds)) if sketch_bounds else 0.0
    )
    sketch = stores.get("EdgeCountSketch")
    out["forms.sketch.bytes"] = float(sketch["total_bytes"]) if sketch else 0.0
    # -- query.engine / core -------------------------------------------
    out["query.engine.execute_self_us"] = per_call_us("query.engine.execute")
    out["query.engine.batch_self_us_per_query"] = 1e6 * _ratio(
        rec.total_self(name="query.engine.execute_batch", phase=TRAFFIC),
        batched * len(traced),
    )
    out["query.engine.batch_cache_hit_rate"] = _ratio(
        counters["batch_boundary_hit"],
        counters["batch_boundary_hit"] + counters["batch_boundary_fill"],
    )
    out["core.facade_overhead_us"] = per_call_us("core.query")
    # -- stream ---------------------------------------------------------
    compactions = [
        rec.duration(s) for s in rec.select(name="stream.compact", phase=TRAFFIC)
    ]
    state = last.stream
    out["stream.append_us_per_event"] = 1e6 * _ratio(
        rec.total_self(name="stream.append_events", phase=TRAFFIC),
        n_events * stream_passes,
    )
    out["stream.compact_s_total"] = _ratio(sum(compactions), stream_passes)
    out["stream.compact_p99_ms"] = (
        1e3 * harness.percentile(compactions, 99) if compactions else 0.0
    )
    out["stream.compactions"] = float(state.get("compactions", 0))
    out["stream.block_merges"] = float(state.get("block_merges", 0))
    out["stream.rewritten_events_per_event"] = _ratio(
        amplification.rewritten,
        state.get("observed_total", 0) * len(run.passes),
    )
    out["stream.blocks_final"] = float(state.get("blocks", 0))
    out["stream.tail_events_mean"] = (
        _ratio(last.tail_events, len(last.ingest)) if spec.streaming else 0.0
    )
    out["stream.query_after_append_us"] = per_call_us("stream.integrate")
    # -- evaluation -----------------------------------------------------
    out["evaluation.exact_query_us"] = 1e6 * float(
        harness.quiet(
            [p.quality.exact_s for p in run.passes if p.quality is not None]
        ).mean()
    )
    out["evaluation.boundary_events_ratio"] = _ratio(
        _mean_value(rec.select(
            name="forms.compile_boundary_ids", phase="quality.exact")),
        _mean_value(rec.select(
            name="forms.compile_boundary_ids", phase="quality.sampled")),
    )
    out["quality.miss_rate"] = (
        1.0 - workloads.quality_metrics(quality)["answered_share"]
    )
    # -- trace ----------------------------------------------------------
    out["trace.coverage_pct"] = 100.0 * _ratio(
        rec.top_level_duration(TRAFFIC)
        + rec.total_duration(name="core.ingest_events", phase="setup"),
        sum(p.traffic_s() for p in traced),
    )
    out["trace.overhead_pct"] = 100.0 * (
        _ratio(_quiet_traffic_s(traced), _quiet_traffic_s(baseline)) - 1.0
    )
    return out


# ----------------------------------------------------------------------
# Probes: small separate measurements made after the passes, with the
# wrappers taken out, on the run's untimed deployment
# ----------------------------------------------------------------------
def run_probes(run: workloads.Run) -> Dict[str, float]:
    hot = run.spec.hot
    out = models_probe(run)
    out["forms.succinct.compile_ratio"] = (
        succinct_compile_ratio(run) if run.spec.compress else 0.0
    )
    out.update(sharded_probe(run) if hot else dict.fromkeys(SHARDED_KEYS, 0.0))
    out.update(obs_probe(run) if hot else dict.fromkeys(OBS_KEYS, 0.0))
    return out


def _columns(run: workloads.Run) -> EventColumns:
    return EventColumns.from_events(run.fw.domain, run.inputs.events)


def _probe_chunks(run: workloads.Run) -> List[Sequence[RangeQuery]]:
    batch, chunk = run.traffic.batch, run.traffic.chunk
    return [batch[i * chunk:(i + 1) * chunk] for i in range(PROBE_CHUNKS)]


def _race(
    a: Any, b: Any, chunks: Sequence[Sequence[RangeQuery]]
) -> Tuple[float, float, List[Any], List[Any]]:
    """Quiet wall time (``harness.quiet``) of engines ``a`` and ``b``
    over ``chunks``, timed in alternating rounds, and their answers."""
    times: Dict[int, List[List[float]]] = {0: [], 1: []}
    answers: Dict[int, List[Any]] = {0: [], 1: []}
    for _ in range(PROBE_ROUNDS):
        for side, engine in enumerate((a, b)):
            row, answers[side] = [], []
            for chunk in chunks:
                start = perf_counter()
                answers[side].extend(engine.execute_batch(chunk))
                row.append(perf_counter() - start)
            times[side].append(row)
    return (
        float(harness.quiet(times[0]).sum()),
        float(harness.quiet(times[1]).sum()),
        answers[0], answers[1],
    )


SHARDED_KEYS = (
    "query.sharded.build_s",
    "query.sharded.batch_us_per_query",
    "query.sharded.scatter_overhead_us_per_query",
    "query.sharded.pickled_bytes_per_query",
    "query.sharded.close_s",
    "shm.segment_bytes",
)


def sharded_probe(run: workloads.Run) -> Dict[str, float]:
    """The scatter-gather engine as a layer: two shards, one worker,
    the hot replay's first chunks, answers checked equal to the
    single-process engine on the same chunks."""
    chunks = _probe_chunks(run)
    n = sum(len(c) for c in chunks)
    columns = _columns(run)
    start = perf_counter()
    sharded = ShardedQueryEngine(run.fw.network, columns, shards=2, workers=1)
    build_s = perf_counter() - start
    try:
        # Worker start-up and chain compiles, on both sides.
        sharded.execute_batch(run.traffic.warm)
        run.engine.execute_batch(run.traffic.warm)
        sharded_s, single_s, answers, expected = _race(
            sharded, run.engine, chunks
        )
        segment_bytes = sum(sharded.describe()["segment_bytes"])
    finally:
        start = perf_counter()
        sharded.close()
        close_s = perf_counter() - start
    run.ops.attempted += n
    for got, want in zip(answers, expected):
        if (got.value, got.missed, got.regions) != (
            want.value, want.missed, want.regions
        ):
            run.ops.fail(f"sharded answer differs on {got.query}")
    pickled = sum(len(pickle.dumps(list(enumerate(c)))) for c in chunks)
    return dict(zip(SHARDED_KEYS, (
        build_s,
        1e6 * sharded_s / n,
        1e6 * (sharded_s - single_s) / n,
        pickled / n,
        close_s,
        float(segment_bytes),
    )))


OBS_KEYS = ("obs.overhead_pct", "obs.flight_records")


def obs_probe(run: workloads.Run) -> Dict[str, float]:
    """Hot batches on a framework with a live tracer and provenance
    against the default null bundle (ROADMAP's <= 5% gate)."""
    inputs = run.inputs
    chunks = _probe_chunks(run)
    n = sum(len(c) for c in chunks)
    live = InNetworkFramework.from_road_graph(
        inputs.road,
        instrumentation=Instrumentation(tracer=Tracer(), provenance=True),
    )
    try:
        live.deploy(run.spec.config(live.domain.block_count))
        live.ingest_events(inputs.events)
        engine = live.engine()
        engine.execute_batch(run.traffic.warm)
        run.engine.execute_batch(run.traffic.warm)
        records_before = live.flight_log().total
        live_s, plain_s, _, _ = _race(engine, run.engine, chunks)
        records = live.flight_log().total - records_before
    finally:
        live.close()
    return {
        "obs.overhead_pct": 100.0 * (live_s / plain_s - 1.0),
        "obs.flight_records": records / (n * PROBE_ROUNDS),
    }


def succinct_compile_ratio(run: workloads.Run) -> float:
    """Chain compile time on the compressed store over the plain store
    built from the same quantized events, same never-seen chains."""
    fw, inputs = run.fw, run.inputs
    bits = fw.config.tick_bits
    columns = _columns(run).quantized(bits)
    planner = CompiledQueryPlanner(fw.network)
    chains = []
    for query in workloads.boxes(
        inputs, "probe/succinct", inputs.scale.quality, workloads.QUALITY_AREA
    ):
        regions = planner.region_ids(planner.junction_ids(query.box), "lower")
        if regions is not None:
            chains.append(planner.boundary(regions))
    times: Dict[bool, List[List[float]]] = {True: [], False: []}
    for _ in range(PROBE_ROUNDS):
        for compress in (True, False):
            # A fresh form each round: a compiled chain stays cached.
            form = fw.network.build_form(
                columns, compress=compress, tick_bits=bits
            )
            row = []
            for chain in chains:
                start = perf_counter()
                form.compile_boundary_ids(chain.wall_ids, chain.signs)
                row.append(perf_counter() - start)
            times[compress].append(row)
    return _ratio(
        float(harness.quiet(times[True]).sum()),
        float(harness.quiet(times[False]).sum()),
    )


def models_probe(run: workloads.Run) -> Dict[str, float]:
    """The abstract's storage cell: one linear model per edge stream
    fitted on the deployed form, answers against ``query_exact``."""
    keys = ("models.fit_s", "models.storage_reduction",
            "models.rel_error_median")
    store = run.engine.store
    if not isinstance(store, CompiledTrackingForm) or run.spec.compress:
        return dict.fromkeys(keys, 0.0)
    start = perf_counter()
    modeled = ModeledCountStore.fit(store, LinearModel)
    fit_s = perf_counter() - start
    exact_bytes = store.total_events * 8  # the paper's accounting
    errors = []
    learned = QueryEngine(run.fw.network, modeled)
    quality = run.quality
    for delivered, reference in zip(quality.results, quality.exact):
        answer = learned.execute(delivered.query)
        err = relative_error(reference.value, answer.value)
        if not answer.missed and err is not None:
            errors.append(err)
    return dict(zip(keys, (
        fit_s,
        1.0 - _ratio(modeled.storage_bytes, exact_bytes),
        float(np.median(errors)) if errors else 0.0,
    )))

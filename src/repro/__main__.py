"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the quickstart pipeline end to end on a small synthetic city
    and print the results (deploy -> ingest -> query vs exact).
    ``--trace out.json`` exports the run's span tree as Chrome
    trace-viewer JSON;
    ``--metrics out.prom`` dumps the metrics registry in Prometheus
    text format; ``--flight out.json`` dumps the always-on query
    flight recorder's recent and slow-query records (promotion
    threshold ``--slow-ms``).
``info``
    Print the library version and the available selectors, stores and
    city generators.

All output is routed through :mod:`repro.obs.logging`; ``--verbose``
adds ``key=value`` debug records, ``--quiet`` suppresses everything
below WARNING.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.obs import logging as obs_logging

log = obs_logging.get_logger("cli")


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.core.config import FrameworkConfig

    log.info(f"repro {repro.__version__} — in-network spatiotemporal "
             "range queries (EDBT 2024 reproduction)")
    log.info(f"  selectors : {', '.join(FrameworkConfig._SELECTORS)}")
    log.info(f"  stores    : {', '.join(FrameworkConfig._STORES)}")
    log.info("  cities    : grid, radial, organic")
    log.info("  docs      : README.md, DESIGN.md, EXPERIMENTS.md")
    return 0


def _world(args: argparse.Namespace, obs, flight, **config):
    """The world of ``demo``: a seeded organic city, a framework over
    it (bundle and flight recorder go to its constructor) deployed
    from the flags plus ``config``, and the trip workload, not yet
    ingested.  Returns ``(framework, network, workload)``."""
    from repro import FrameworkConfig, InNetworkFramework
    from repro.mobility import organic_city
    from repro.trajectories import WorkloadConfig, generate_workload

    road = organic_city(
        blocks=args.blocks, rng=np.random.default_rng(args.seed)
    )
    framework = InNetworkFramework.from_road_graph(
        road, instrumentation=obs, flight=flight
    )
    domain = framework.domain
    network = framework.deploy(FrameworkConfig(
        selector=args.selector,
        budget=max(int(domain.block_count * args.fraction), 2),
        store=args.store, seed=args.seed, compress=args.compress,
        tick_bits=args.tick_bits,
        **config,
    ))
    workload = generate_workload(
        domain,
        WorkloadConfig(n_trips=args.trips, horizon_days=1.0,
                       mean_dwell=3600.0, seed=args.seed),
    )
    return framework, network, workload


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.geometry import BBox
    from repro.obs import (
        FlightRecorder,
        Instrumentation,
        MetricsRegistry,
        NULL_TRACER,
        Tracer,
        get_registry,
        kv,
        set_registry,
    )

    instrumented = bool(args.trace or args.metrics)
    if instrumented:
        # A fresh registry so the dump reflects this run only.
        set_registry(MetricsRegistry())
    obs = Instrumentation(tracer=Tracer() if instrumented else NULL_TRACER)
    framework, network, workload = _world(
        args, obs, FlightRecorder(slow_threshold_s=args.slow_ms / 1e3),
        streaming=args.stream, compact_every=args.compact_every,
        sketch_bins=args.sketch_bins,
    )
    domain = framework.domain
    log.info(f"city: {domain.junction_count} junctions, "
             f"{domain.block_count} blocks")
    log.info(f"deployed: {len(network.sensors)} sensors "
             f"({network.size_fraction:.1%}), {len(network.walls)} walls, "
             f"{network.region_count} regions")
    log.debug("deploy %s", kv(selector=args.selector,
                              budget=framework.config.budget,
                              regions=network.region_count))

    if args.stream:
        from repro.trajectories import all_events

        events = sorted(all_events(domain, workload.trips),
                        key=lambda event: event.t)
        batch = max(args.compact_every // 2, 1)
        n_events = 0
        windows = 0
        for start in range(0, len(events), batch):
            n_events += framework.ingest_events(events[start:start + batch])
            windows += 1
        store = framework.streaming_store
        log.info(f"streamed: {n_events} crossing events over {windows} "
                 f"arrival windows ({store.observed_total} observed)")
        log.info(f"stream layout: tail {store.tail_events} events, "
                 f"{store.block_count} blocks x {store.block_events} "
                 f"events, {store.compactions} compactions, "
                 f"{store.block_merges} merges, "
                 f"rewritten {store.rewritten_events} / observed "
                 f"{store.observed_total} = "
                 f"{store.rewritten_events / max(store.observed_total, 1):.2f}, "
                 f"generation {store.generation}")
    else:
        n_events = framework.ingest_trips(workload.trips)
        log.info(f"ingested: {n_events} crossing events")

    injector = None
    if args.faults > 0:
        from repro.network import FaultConfig

        injector = framework.fault_injector(
            FaultConfig(seed=args.seed, sensor_failure_rate=args.faults,
                        drop_rate=args.faults / 2)
        )
        log.info(f"faults: {args.faults:.0%} sensor failure, "
                 f"{args.faults / 2:.0%} message drop "
                 f"({len(injector.crashed)} sensors down)")

    box = BBox.from_center(domain.bounds.center,
                           domain.bounds.width * 0.45,
                           domain.bounds.height * 0.45)
    t2 = 18 * 3600.0
    approx = framework.query(box, 0.0, t2, faults=injector,
                             max_error=args.max_error)
    exact = framework.query_exact(box, 0.0, t2)
    if approx.missed:
        log.info("query: lower bound missed (increase --fraction)")
    else:
        error = (abs(approx.value - exact.value) / exact.value
                 if exact.value else 0.0)
        log.info(f"query @18:00 — estimate {approx.value:.0f}, "
                 f"exact {exact.value:.0f} (err {error:.1%}); "
                 f"{approx.nodes_accessed} sensors contacted vs "
                 f"{exact.nodes_accessed} flooded")
        if approx.degradation is not None:
            d = approx.degradation
            if d.strategy == "sketch":
                log.info(f"sketch: served from the count summary, "
                         f"0 sensors contacted (error bound "
                         f"±{d.error_bound:.0f} <= --max-error "
                         f"{args.max_error:g})")
            else:
                log.info(f"degraded: {len(d.skipped_sensors)} sensors "
                         f"skipped, "
                         f"{d.lost_walls}/{d.boundary_walls} walls lost "
                         f"(error bound ±{d.error_bound:.0f}, "
                         f"{d.detours} detours, "
                         f"{d.server_stitches} stitches)")
        log.debug("query provenance %s", kv(
            junctions=approx.junction_count,
            regions=len(approx.regions),
            boundary=approx.boundary_length,
        ))
    log.info(f"storage: {framework.storage_bytes} bytes ({args.store}"
             f"{', compressed' if args.compress else ''})")
    if args.storage:
        report = framework.storage_report()
        for store_report in report["stores"]:
            log.info(f"  {store_report['store']}: "
                     f"{store_report['total_bytes']} bytes "
                     f"(+{store_report['derived_bytes']} derived) over "
                     f"{store_report['events']} events")
            for name, nbytes in sorted(
                store_report["components"].items()
            ):
                log.info(f"    {name:<16} {nbytes:>10} bytes")
        log.info(f"  total: {report['total_bytes']} bytes")

    if args.trace:
        obs.tracer.export_chrome(args.trace)
        log.info(f"trace: wrote {args.trace}")
        log.debug("span tree:\n%s", obs.tracer.format_tree())
    if args.metrics:
        with open(args.metrics, "w") as handle:
            handle.write(get_registry().to_prometheus())
        log.info(f"metrics: wrote {args.metrics}")
    if args.flight:
        flight = framework.flight_log()
        flight.dump(args.flight)
        log.info(f"flight: wrote {args.flight} ({flight.total} records, "
                 f"{flight.slow_total} slow)")
    framework.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="In-network spatiotemporal range queries "
                    "(EDBT 2024 reproduction)",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--verbose", "-v", action="store_true",
        help="debug output with key=value detail records",
    )
    verbosity.add_argument(
        "--quiet", action="store_true",
        help="suppress everything below WARNING",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("info", help="library capabilities").set_defaults(
        handler=_cmd_info
    )

    demo = commands.add_parser("demo", help="end-to-end demo pipeline")
    demo.add_argument("--blocks", type=int, default=200)
    demo.add_argument("--trips", type=int, default=3000)
    demo.add_argument("--fraction", type=float, default=0.25,
                      help="sensor budget as a fraction of blocks")
    demo.add_argument("--selector", default="quadtree",
                      choices=["uniform", "systematic", "kdtree",
                               "quadtree", "stratified"])
    demo.add_argument("--store", default="exact",
                      choices=["exact", "linear", "polynomial",
                               "piecewise", "histogram"])
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--faults", type=float, default=0.0, metavar="P",
                      help="inject faults: P is the sensor crash rate "
                           "(P/2 becomes the per-message drop rate); "
                           "queries then run fault-tolerantly and "
                           "report their degradation bound; 0 disables "
                           "fault injection")
    demo.add_argument("--flight", metavar="PATH", default=None,
                      help="dump the always-on query flight recorder "
                           "(recent and slow-query records) as JSON")
    demo.add_argument("--slow-ms", type=float, default=100.0,
                      help="flight-recorder slow-query promotion "
                           "threshold in milliseconds")
    demo.add_argument("--compress", action="store_true",
                      help="succinct storage tier: delta-encoded, "
                           "bit-packed timestamp columns (~4x smaller, "
                           "byte-identical answers)")
    demo.add_argument("--tick-bits", type=int, default=10,
                      help="timestamp quantization for --compress: "
                           "2**tick_bits ticks per second (0-20)")
    demo.add_argument("--trace", metavar="PATH", default=None,
                      help="write Chrome trace-viewer JSON of the run")
    demo.add_argument("--metrics", metavar="PATH", default=None,
                      help="write the metrics registry in Prometheus "
                           "text format")
    demo.add_argument("--stream", action="store_true",
                      help="streaming ingestion: feed events in arrival "
                           "windows through the LSM-style store "
                           "(incremental index maintenance) instead of "
                           "one batch build")
    demo.add_argument("--compact-every", type=int, default=1024,
                      help="streaming tail size that triggers a "
                           "compaction (with --stream)")
    demo.add_argument("--sketch-bins", type=int, default=0,
                      help="build an error-bounded per-edge count "
                           "sketch with this many time bins (0 "
                           "disables the sketch tier)")
    demo.add_argument("--max-error", type=float, default=None,
                      help="absolute count-error tolerance: serve the "
                           "demo query from the sketch when its bound "
                           "fits (needs --sketch-bins)")
    demo.add_argument("--storage", action="store_true",
                      help="print the per-component storage breakdown "
                           "of the deployed store(s)")
    demo.set_defaults(handler=_cmd_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    verbosity = 1 if args.verbose else (-1 if args.quiet else 0)
    obs_logging.configure(verbosity)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())

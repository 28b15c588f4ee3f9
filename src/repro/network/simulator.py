"""Message-level in-network communication simulator (system S11).

The paper evaluates "an in-network system with abstractions ...
independent of the real distributed implementation" (§5): what matters
is *which* sensors a query touches and how far messages travel, not the
radio protocol.  This simulator replays the two dispatch strategies of
§4.6 over a query's perimeter:

- ``server_fanout``: the query server contacts every perimeter sensor
  directly and aggregates centrally (one round trip per sensor);
- ``perimeter_walk``: the server contacts one perimeter sensor, the
  partial aggregate is routed sensor-to-sensor around the perimeter
  (angular order), and the last sensor replies to the server.

Hop distances between sensors are measured along the sensing dual
graph, estimated as Euclidean distance over the mean dual edge length
(exact shortest paths would be O(E log V) per hop and change nothing
qualitatively; the estimate is documented as such).  The two server
legs of a walk (server -> first sensor, last sensor -> server) use the
same distance-over-mean-hop estimate against the shared server
position, so hop accounting and the distance-based energy accounting
of the §3.1 ablation (``benchmarks/lib/energy.py``) agree on the same
geometry.

With a :class:`~repro.network.FaultInjector` attached the dispatcher
becomes fault tolerant: contact attempts are retried per the
:class:`~repro.network.RetryPolicy`, a perimeter walk detours around
unreachable sensors (skip-ahead to the next live one, falling back to
server-mediated stitching when ``stitch_after`` consecutive sensors
are down), and every dispatch returns a :class:`DegradedReport`
carrying which sensors were skipped plus the coverage of the boundary
chain.  Without an injector the accounting is byte-identical to the
fault-free simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import QueryError
from ..geometry import Point
from ..obs import Instrumentation, NULL_INSTRUMENTATION, get_registry
from ..sampling import SensorNetwork
from .faults import FaultInjector, RetryPolicy

#: Histogram buckets for degradation fractions (coverage losses live
#: in [0, 1], far below the default message-count buckets).
DEGRADATION_BUCKETS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)


def default_server_position(domain) -> Point:
    """Canonical query-server location: just outside the north-east
    corner of the domain (shared by the simulator and the energy model
    so both account the same server legs)."""
    bounds = domain.bounds
    return (
        bounds.max_x + 0.2 * bounds.width,
        bounds.max_y + 0.2 * bounds.height,
    )


@dataclass
class CommunicationReport:
    """Accounting for one simulated query dispatch."""

    strategy: str
    sensors_contacted: int
    messages: int
    hops: int
    #: Per-sensor message counts (congestion profile).
    load: Dict[int, int] = field(default_factory=dict)


@dataclass
class DegradedReport(CommunicationReport):
    """Dispatch accounting under fault injection.

    A :class:`CommunicationReport` plus the fault outcome.  With no
    injector (or every failure rate at zero) the extra fields keep
    their trivial values and the core accounting equals the fault-free
    report's.
    """

    #: Perimeter sensors whose partial aggregates are missing from the
    #: final answer, in contact order.
    skipped_sensors: Tuple[int, ...] = ()
    #: Extra contact attempts beyond the first, across all targets.
    retries: int = 0
    #: Messages lost in flight.
    drops: int = 0
    #: Walk skip-aheads around an unreachable sensor.
    detours: int = 0
    #: Walk segments stitched through the server after a run of
    #: unreachable sensors (``RetryPolicy.stitch_after``).
    server_stitches: int = 0
    #: Simulated latency: sequential along a walk, slowest round trip
    #: for a fan-out.
    latency: float = 0.0
    #: Fraction of the perimeter chain aggregated into the answer.
    coverage: float = 1.0

    @property
    def degraded(self) -> bool:
        return bool(self.skipped_sensors)

    @property
    def error_fraction(self) -> float:
        """Skipped sensors' share of the boundary chain — the
        simulator-level bound on the relative count error of the
        partial aggregate (each perimeter sensor carries one equal
        share of the boundary integral)."""
        return 1.0 - self.coverage


class _Accounting:
    """Mutable per-dispatch message bookkeeping."""

    __slots__ = ("messages", "hops", "latency", "retries", "drops", "load")

    def __init__(self, sensors: Sequence[int]) -> None:
        self.messages = 0
        self.hops = 0
        self.latency = 0.0
        self.retries = 0
        self.drops = 0
        self.load: Dict[int, int] = {sensor: 0 for sensor in sensors}


class NetworkSimulator:
    """Simulates query dispatch over a sensing network."""

    def __init__(
        self,
        network: SensorNetwork,
        instrumentation: Optional[Instrumentation] = None,
        faults: Optional[FaultInjector] = None,
        retry: RetryPolicy = RetryPolicy(),
        server_position: Optional[Point] = None,
    ) -> None:
        self.network = network
        self.obs = (
            instrumentation
            if instrumentation is not None
            else NULL_INSTRUMENTATION
        )
        self.faults = faults
        self.retry = retry
        self.server_position = (
            server_position
            if server_position is not None
            else default_server_position(network.domain)
        )
        self._mean_hop = network.domain.dual.mean_interior_edge_length()
        if faults is not None:
            faults.record_schedule()

    def _hops_between(self, a: int, b: int) -> int:
        dual = self.network.domain.dual
        ax, ay = dual.position(a)
        bx, by = dual.position(b)
        distance = math.hypot(ax - bx, ay - by)
        return max(int(round(distance / self._mean_hop)), 1)

    def uplink_hops(self, sensor: int) -> int:
        """Hops of a server <-> sensor leg: the same Euclidean distance
        over mean-dual-edge-length estimate used between sensors,
        measured against the shared server position (so the simulator's
        hop count and the energy model's distance cost describe the
        same leg)."""
        sx, sy = self.server_position
        px, py = self.network.domain.dual.position(sensor)
        distance = math.hypot(sx - px, sy - py)
        return max(int(round(distance / self._mean_hop)), 1)

    # ------------------------------------------------------------------
    def dispatch(
        self, perimeter_sensors: Sequence[int], strategy: str = "perimeter_walk"
    ) -> DegradedReport:
        """Simulate one query dispatch over the given perimeter sensors."""
        sensors = list(dict.fromkeys(perimeter_sensors))
        if not sensors:
            raise QueryError("cannot dispatch to an empty perimeter")
        with self.obs.tracer.span(
            "simulator.dispatch", strategy=strategy, sensors=len(sensors)
        ):
            if strategy == "server_fanout":
                report = self._server_fanout(sensors)
            elif strategy == "perimeter_walk":
                report = self._perimeter_walk(sensors)
            else:
                raise QueryError(f"unknown dispatch strategy {strategy!r}")
        self._record(report)
        return report

    def _record(self, report: DegradedReport) -> None:
        registry = get_registry()
        strategy = report.strategy
        registry.counter(
            "repro_sim_dispatches_total",
            help="Simulated query dispatches, by strategy",
            strategy=strategy,
        ).inc()
        registry.counter(
            "repro_sim_messages_total",
            help="Simulated messages sent, by strategy",
            strategy=strategy,
        ).inc(report.messages)
        registry.counter(
            "repro_sim_hops_total",
            help="Simulated message hops travelled, by strategy",
            strategy=strategy,
        ).inc(report.hops)
        registry.histogram(
            "repro_sim_messages",
            help="Messages per dispatch, by strategy",
            strategy=strategy,
        ).observe(report.messages)
        registry.histogram(
            "repro_sim_hops",
            help="Hops per dispatch, by strategy",
            strategy=strategy,
        ).observe(report.hops)
        if self.faults is None:
            return
        registry.counter(
            "repro_sim_drops_total",
            help="Simulated messages lost in flight, by strategy",
            strategy=strategy,
        ).inc(report.drops)
        registry.counter(
            "repro_sim_retries_total",
            help="Contact attempts beyond the first, by strategy",
            strategy=strategy,
        ).inc(report.retries)
        registry.counter(
            "repro_sim_detours_total",
            help="Perimeter-walk detours around unreachable sensors",
            strategy=strategy,
        ).inc(report.detours)
        registry.counter(
            "repro_sim_stitches_total",
            help="Server-mediated stitches of broken perimeter walks",
            strategy=strategy,
        ).inc(report.server_stitches)
        if report.degraded:
            registry.counter(
                "repro_sim_degraded_dispatches_total",
                help="Dispatches that skipped at least one sensor",
                strategy=strategy,
            ).inc()
        registry.histogram(
            "repro_sim_degradation",
            buckets=DEGRADATION_BUCKETS,
            help="Skipped share of the boundary chain per dispatch",
            strategy=strategy,
        ).observe(report.error_fraction)
        registry.histogram(
            "repro_sim_latency",
            help="Simulated dispatch latency, by strategy",
            strategy=strategy,
        ).observe(report.latency)

    # ------------------------------------------------------------------
    def _attempt(
        self,
        state: _Accounting,
        target: Optional[int],
        hop_count: int,
    ) -> bool:
        """Deliver one message to ``target`` (None = the server) over
        ``hop_count`` hops, retrying per the policy when faults are
        active.  Counts every attempt's messages/hops/latency; credits
        ``load`` to the target on successful receipt.  Returns whether
        the message was acknowledged."""
        faults = self.faults
        attempts = 1 + (self.retry.max_retries if faults is not None else 0)
        for attempt in range(attempts):
            state.messages += 1
            state.hops += hop_count
            if attempt:
                state.retries += 1
            if faults is None:
                delivered = acked = True
            else:
                state.latency += faults.message_latency(hop_count)
                delivered = faults.delivered()
                if not delivered:
                    state.drops += 1
                acked = delivered and faults.responds(target)
            if acked:
                if target is not None:
                    state.load[target] += 1
                return True
            if faults is not None:
                state.latency += self.retry.wait(attempt)
        return False

    def _server_fanout(self, sensors: List[int]) -> DegradedReport:
        faults = self.faults
        state = _Accounting(sensors)
        skipped: List[int] = []
        latency = 0.0
        attempts = 1 + (self.retry.max_retries if faults is not None else 0)
        for sensor in sensors:
            chain = 0.0
            success = False
            for attempt in range(attempts):
                state.messages += 1
                state.hops += 1  # request: direct long-range link
                if attempt:
                    state.retries += 1
                if faults is None:
                    request_ok = acked = True
                else:
                    chain += faults.message_latency(1)
                    request_ok = faults.delivered()
                    if not request_ok:
                        state.drops += 1
                    acked = request_ok and faults.responds(sensor)
                reply_ok = False
                if acked:
                    state.load[sensor] += 2  # request received + reply sent
                    state.messages += 1
                    state.hops += 1  # reply: direct long-range link
                    if faults is None:
                        reply_ok = True
                    else:
                        chain += faults.message_latency(1)
                        reply_ok = faults.delivered()
                        if not reply_ok:
                            state.drops += 1
                if reply_ok:
                    success = True
                    break
                if faults is not None:
                    chain += self.retry.wait(attempt)
            if not success:
                skipped.append(sensor)
            latency = max(latency, chain)  # fan-out runs in parallel
        reached = len(sensors) - len(skipped)
        return DegradedReport(
            strategy="server_fanout",
            sensors_contacted=reached,
            messages=state.messages,
            hops=state.hops,
            load=state.load,
            skipped_sensors=tuple(skipped),
            retries=state.retries,
            drops=state.drops,
            latency=latency,
            coverage=reached / len(sensors),
        )

    def _perimeter_walk(self, sensors: List[int]) -> DegradedReport:
        ordered = self._angular_order(sensors)
        faults = self.faults
        state = _Accounting(ordered)
        skipped: List[int] = []
        detours = 0
        stitches = 0

        # Server -> first reachable sensor.
        current: Optional[int] = None
        index = 0
        while index < len(ordered):
            target = ordered[index]
            index += 1
            if self._attempt(state, target, self.uplink_hops(target)):
                current = target
                break
            skipped.append(target)
        if current is None:
            return DegradedReport(
                strategy="perimeter_walk",
                sensors_contacted=0,
                messages=state.messages,
                hops=state.hops,
                load=state.load,
                skipped_sensors=tuple(skipped),
                retries=state.retries,
                drops=state.drops,
                latency=state.latency,
                coverage=0.0,
                )

        # Sensor-to-sensor walk with detours and server stitching.
        visited = [current]
        run = 0  # consecutive unreachable sensors since the last success
        for target in ordered[index:]:
            if faults is not None and run == self.retry.stitch_after:
                # A run of dead sensors: upload the partial aggregate
                # and let the server mediate the rest of the segment.
                stitches += 1
                state.load[current] += 1
                self._attempt(state, None, self.uplink_hops(current))
            if faults is not None and run >= self.retry.stitch_after:
                hop_count = self.uplink_hops(target)  # server-mediated
            else:
                hop_count = self._hops_between(current, target)
            if self._attempt(state, target, hop_count):
                current = target
                visited.append(target)
                run = 0
            else:
                skipped.append(target)
                detours += 1
                run += 1

        # Last sensor -> server (the send is charged to the sender).
        state.load[current] += 1
        final_ok = self._attempt(state, None, self.uplink_hops(current))
        if not final_ok:
            # The collected aggregate never reached the server: every
            # share is lost, whoever was visited along the way.
            skipped = list(ordered)
            coverage = 0.0
        else:
            coverage = len(visited) / len(ordered)
        return DegradedReport(
            strategy="perimeter_walk",
            sensors_contacted=len(visited),
            messages=state.messages,
            hops=state.hops,
            load=state.load,
            skipped_sensors=tuple(skipped),
            retries=state.retries,
            drops=state.drops,
            detours=detours,
            server_stitches=stitches,
            latency=state.latency,
            coverage=coverage,
        )

    def _angular_order(self, sensors: List[int]) -> List[int]:
        dual = self.network.domain.dual
        points = [dual.position(s) for s in sensors]
        cx = sum(p[0] for p in points) / len(points)
        cy = sum(p[1] for p in points) / len(points)
        return [
            sensor
            for _, sensor in sorted(
                (
                    (math.atan2(p[1] - cy, p[0] - cx), sensor)
                    for sensor, p in zip(sensors, points)
                )
            )
        ]

"""Per-sensor health scoring and fleet rollups.

The fault-tolerant dispatcher (:class:`~repro.network.NetworkSimulator`)
and its active probe sweeps record per-sensor-labeled telemetry —
``repro_sensor_attempts_total``, ``_acks_total``, ``_drops_total``,
``_retries_total``, ``_detours_total`` and ``_latency_total``, each
labeled ``sensor="<id>"``.  This module folds those counters into one
:class:`SensorHealth` per sensor:

- ``score`` — the acknowledged fraction of contact attempts in
  ``[0, 1]`` (every retry is an attempt, so flaky sensors score low
  without a separate penalty term);
- ``status`` — ``"failed"`` (contacted, never acknowledged),
  ``"degraded"`` (score under the healthy threshold), ``"healthy"``,
  or ``"idle"`` (never contacted — a sensor the workload and probes
  did not reach says nothing about its health).

:func:`fleet_health` reads those counters off a
:class:`~repro.obs.TimeSeriesRecorder`'s latest tick — the tick the
SLOs and sparklines read too — and rolls the fleet up (counts per
status, mean score, worst offenders) into the report the ``repro
monitor`` CLI prints and the dashboard renders as the sensor heatmap.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from .timeseries import TimeSeriesRecorder

#: Score below which a responding sensor is reported ``degraded``.
DEGRADED_THRESHOLD = 0.8

#: Minimum attempts before a never-acknowledging sensor is ``failed``
#: (a single dropped message should not condemn a healthy sensor).
FAILED_MIN_ATTEMPTS = 2

#: The per-sensor counter families the simulator emits.
SENSOR_METRICS = {
    "attempts": "repro_sensor_attempts_total",
    "acks": "repro_sensor_acks_total",
    "drops": "repro_sensor_drops_total",
    "retries": "repro_sensor_retries_total",
    "detours": "repro_sensor_detours_total",
    "latency": "repro_sensor_latency_total",
}


@dataclass(frozen=True)
class SensorHealth:
    """Cumulative contact telemetry and derived health of one sensor."""

    sensor: int
    attempts: int = 0
    acks: int = 0
    drops: int = 0
    retries: int = 0
    detours: int = 0
    latency: float = 0.0

    @property
    def score(self) -> float:
        """Acknowledged fraction of contact attempts (1.0 when idle)."""
        if self.attempts <= 0:
            return 1.0
        return self.acks / self.attempts

    @property
    def status(self) -> str:
        if self.attempts <= 0:
            return "idle"
        if self.acks == 0 and self.attempts >= FAILED_MIN_ATTEMPTS:
            return "failed"
        if self.score < DEGRADED_THRESHOLD:
            return "degraded"
        return "healthy"

    def as_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "score": self.score, "status": self.status}


@dataclass(frozen=True)
class FleetHealth:
    """Health of every known sensor plus fleet-level rollups."""

    sensors: Tuple[SensorHealth, ...]

    def by_status(self, status: str) -> Tuple[SensorHealth, ...]:
        return tuple(s for s in self.sensors if s.status == status)

    @property
    def counts(self) -> Dict[str, int]:
        rollup = {"healthy": 0, "degraded": 0, "failed": 0, "idle": 0}
        for sensor in self.sensors:
            rollup[sensor.status] += 1
        return rollup

    @property
    def failed_sensors(self) -> Tuple[int, ...]:
        return tuple(s.sensor for s in self.by_status("failed"))

    @property
    def mean_score(self) -> float:
        """Mean score over contacted sensors (1.0 for an idle fleet)."""
        contacted = [s for s in self.sensors if s.attempts > 0]
        if not contacted:
            return 1.0
        return sum(s.score for s in contacted) / len(contacted)

    def worst_offenders(self, n: int = 10) -> Tuple[SensorHealth, ...]:
        """The ``n`` contacted sensors burning the most budget: lowest
        score first, ties broken by most attempts (louder failures
        first)."""
        contacted = [s for s in self.sensors if s.attempts > 0]
        contacted.sort(key=lambda s: (s.score, -s.attempts, s.sensor))
        return tuple(contacted[:n])

    def format_report(self, n_offenders: int = 10) -> str:
        counts = self.counts
        lines = [
            "fleet health: "
            f"{counts['healthy']} healthy, {counts['degraded']} degraded, "
            f"{counts['failed']} failed, {counts['idle']} idle "
            f"(mean score {self.mean_score:.2f})"
        ]
        offenders = self.worst_offenders(n_offenders)
        if offenders:
            lines.append(
                "  sensor   score  status    att   ack  drop  retry  detour"
            )
            for s in offenders:
                lines.append(
                    f"  {s.sensor:>6}  {s.score:>6.2f}  {s.status:<8}"
                    f"{s.attempts:>5} {s.acks:>5} {s.drops:>5} "
                    f"{s.retries:>6} {s.detours:>7}"
                )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "counts": self.counts,
            "mean_score": self.mean_score,
            "failed_sensors": list(self.failed_sensors),
            "sensors": [s.as_dict() for s in self.sensors],
        }


def fleet_health(
    recorder: TimeSeriesRecorder,
    known_sensors: Optional[Iterable[int]] = None,
) -> FleetHealth:
    """Fold the per-sensor counters of the recorder's latest tick into a
    :class:`FleetHealth` (an empty fleet before the first tick).

    ``known_sensors`` (e.g. a deployed network's sensor set) adds
    never-contacted sensors as ``idle`` rows so the rollup covers the
    whole fleet, not just the sensors queries happened to touch.
    """
    fields = {name: field for field, name in SENSOR_METRICS.items()}
    stats: Dict[int, Dict[str, float]] = {}
    latest = recorder.latest
    for (name, labels), value in latest.counters.items() if latest else ():
        sensor = dict(labels).get("sensor", "")
        if name in fields and sensor.isdecimal():
            stats.setdefault(int(sensor), {})[fields[name]] = value
    for sensor in known_sensors or ():
        stats.setdefault(int(sensor), {})
    return FleetHealth(
        sensors=tuple(
            SensorHealth(
                sensor=sensor,
                latency=float(values.pop("latency", 0.0)),
                **{field: int(value) for field, value in values.items()},
            )
            for sensor, values in sorted(stats.items())
        )
    )

"""Deterministic fault injection for the in-network simulator.

The paper's evaluation (§5) assumes every sensor is alive and every
message is delivered — no real sensing deployment satisfies either.
This module supplies the failure side of the story so the dispatch
strategies of §4.6 can be exercised under the conditions in-network
aggregation literature actually worries about:

- **crash faults** — a seeded fraction of sensors is down for the whole
  run (dead radios, drained batteries);
- **intermittent faults** — a seeded fraction of sensors answers each
  contact attempt only with some availability probability (duty
  cycling, interference);
- **message drops** — every transmitted message is independently lost
  with a configurable probability;
- **latency** — a first-order per-message latency model (base cost plus
  a per-hop term), with failed attempts charging the retry policy's
  timeout and exponential backoff.

Everything is deterministic given :attr:`FaultConfig.seed`: the crash /
intermittent schedule is drawn once at injector construction, and the
per-attempt stream is an ordinary seeded generator, so a fixed seed and
call order replay exactly.  With every rate at zero the injector never
consumes randomness and the fault-aware dispatch paths are
byte-identical to the fault-free ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..obs import get_registry


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class FaultConfig:
    """Failure schedule and latency model parameters (all seeded)."""

    #: Seed for both the crash schedule and the per-attempt stream.
    seed: int = 0
    #: Fraction of sensors crashed for the whole run.
    sensor_failure_rate: float = 0.0
    #: Fraction of (non-crashed) sensors that answer intermittently.
    intermittent_rate: float = 0.0
    #: Per-attempt probability that an intermittent sensor answers.
    availability: float = 0.5
    #: Per-message loss probability (applies to every transmission).
    drop_rate: float = 0.0
    #: Latency of one delivered message (arbitrary-but-consistent
    #: units, like the energy model's).
    base_latency: float = 1.0
    #: Additional latency per hop travelled.
    hop_latency: float = 0.5

    def __post_init__(self) -> None:
        _check_probability("sensor_failure_rate", self.sensor_failure_rate)
        _check_probability("intermittent_rate", self.intermittent_rate)
        _check_probability("availability", self.availability)
        _check_probability("drop_rate", self.drop_rate)
        if min(self.base_latency, self.hop_latency) < 0:
            raise ConfigurationError("latencies must be non-negative")


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/timeout/backoff of the fault-tolerant dispatch paths."""

    #: Retries after the first attempt (so ``1 + max_retries`` attempts).
    max_retries: int = 2
    #: Latency charged for an attempt that receives no acknowledgement.
    timeout: float = 5.0
    #: Multiplicative backoff on the timeout between attempts.
    backoff: float = 2.0
    #: Consecutive unreachable perimeter sensors tolerated before the
    #: walk falls back to server-mediated stitching.
    stitch_after: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.timeout < 0:
            raise ConfigurationError("timeout must be non-negative")
        if self.backoff < 1.0:
            raise ConfigurationError("backoff must be >= 1")
        if self.stitch_after < 1:
            raise ConfigurationError("stitch_after must be >= 1")

    def wait(self, attempt: int) -> float:
        """Timeout + backoff latency of failed attempt ``attempt`` (0-based)."""
        return self.timeout * (self.backoff**attempt)


class FaultInjector:
    """Materialised, deterministic fault schedule over a sensor set.

    The crash / intermittent schedule is drawn once from
    ``FaultConfig.seed`` over the sorted sensor universe; per-attempt
    randomness (intermittent answers, message drops) comes from an
    independent seeded stream.  ``crashed`` / ``flaky`` overrides allow
    tests and experiments to script exact failure patterns.
    """

    def __init__(
        self,
        config: FaultConfig,
        sensors: Sequence[int],
        crashed: Optional[Iterable[int]] = None,
        flaky: Optional[Iterable[int]] = None,
    ) -> None:
        self.config = config
        universe = sorted(dict.fromkeys(sensors))
        schedule_rng = np.random.default_rng(config.seed)
        if crashed is not None:
            self.crashed: FrozenSet[int] = frozenset(crashed)
        elif config.sensor_failure_rate > 0:
            draws = schedule_rng.random(len(universe))
            self.crashed = frozenset(
                s
                for s, draw in zip(universe, draws)
                if draw < config.sensor_failure_rate
            )
        else:
            self.crashed = frozenset()
        if flaky is not None:
            self.flaky: FrozenSet[int] = frozenset(flaky) - self.crashed
        elif config.intermittent_rate > 0:
            draws = schedule_rng.random(len(universe))
            self.flaky = frozenset(
                s
                for s, draw in zip(universe, draws)
                if draw < config.intermittent_rate and s not in self.crashed
            )
        else:
            self.flaky = frozenset()
        self._attempt_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(1,))
        )

    def record_schedule(self, registry=None) -> None:
        """Export the materialised failure schedule as gauges.

        Called by the simulator at construction, so a metrics dump
        carries the *scheduled* failed-sensor count beside the
        dispatch counters it shaped.
        """
        if registry is None:
            registry = get_registry()
        registry.gauge(
            "repro_fault_crashed_sensors",
            help="Sensors scheduled as crashed for the whole run",
        ).set(len(self.crashed))
        registry.gauge(
            "repro_fault_flaky_sensors",
            help="Sensors scheduled as intermittently responsive",
        ).set(len(self.flaky))

    @classmethod
    def for_network(
        cls, network, config: FaultConfig = FaultConfig()
    ) -> "FaultInjector":
        """Injector over a :class:`~repro.sampling.SensorNetwork`'s sensors."""
        return cls(config, network.sensors)

    # ------------------------------------------------------------------
    def responds(self, sensor: Optional[int]) -> bool:
        """One contact attempt: does the target acknowledge?

        ``None`` addresses the always-responsive query server.
        """
        if sensor is None:
            return True
        if sensor in self.crashed:
            return False
        if sensor in self.flaky:
            return bool(
                self._attempt_rng.random() < self.config.availability
            )
        return True

    def delivered(self) -> bool:
        """One transmission: does the message arrive?"""
        if self.config.drop_rate <= 0:
            return True
        return bool(self._attempt_rng.random() >= self.config.drop_rate)

    def message_latency(self, hops: int) -> float:
        return self.config.base_latency + self.config.hop_latency * hops

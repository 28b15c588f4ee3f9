"""Declarative service-level objectives over recorder windows.

An :class:`SLO` states what fraction of events must be *good* over a
trailing window ("99% of queries answered exactly", "95% of queries
under 2ms", "90% of degraded dispatches lose ≤10% of the boundary").
Evaluating one against a :class:`~repro.obs.TimeSeriesRecorder` yields
an :class:`SLOStatus` carrying the standard error-budget arithmetic:

- ``compliance`` — good/total over the window (1.0 when idle);
- ``error_budget`` — the allowed bad fraction, ``1 - objective``;
- ``budget_used`` — the observed bad fraction;
- ``burn_rate`` — ``budget_used / error_budget``: >1 means the window
  is burning budget faster than the objective allows (the Google
  SRE-workbook multi-window burn-rate number).

Two shapes cover the monitor's needs:

- :class:`AvailabilitySLO` — counter-ratio goodness (bad counters over
  a total counter; misses + degraded queries by default);
- :class:`ThresholdSLO` — histogram-threshold goodness: observations at
  or under a threshold, by cumulative bucket delta.  The monitor runs
  it twice: over query latency, and over the degradation-share
  histogram (a degraded dispatch is good when the skipped share of its
  boundary chain stays under the cap).

:class:`AlertLog` watches a stream of statuses and records threshold
*crossings* (breach and recovery), not levels — the monitor prints it
and the dashboard renders it as the incident timeline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .timeseries import TimeSeriesRecorder


@dataclass(frozen=True)
class SLOStatus:
    """One SLO evaluated over one recorder window."""

    name: str
    objective: float
    window_s: Optional[float]
    good: float
    total: float
    description: str = ""

    @property
    def compliance(self) -> float:
        """Good fraction over the window (1.0 when nothing happened)."""
        if self.total <= 0:
            return 1.0
        return self.good / self.total

    @property
    def ok(self) -> bool:
        return self.compliance >= self.objective

    @property
    def error_budget(self) -> float:
        """Allowed bad fraction: ``1 - objective``."""
        return 1.0 - self.objective

    @property
    def budget_used(self) -> float:
        """Observed bad fraction of the window."""
        return 1.0 - self.compliance

    @property
    def burn_rate(self) -> float:
        """``budget_used / error_budget``; >1 burns faster than allowed.

        An objective of exactly 1.0 has no budget: any bad event burns
        at infinite rate (reported as ``inf``).
        """
        if self.budget_used <= 0:
            return 0.0
        if self.error_budget <= 0:
            return float("inf")
        return self.budget_used / self.error_budget

    def as_dict(self) -> Dict[str, Any]:
        derived = ("compliance", "ok", "error_budget", "budget_used",
                   "burn_rate")
        return {**asdict(self), **{k: getattr(self, k) for k in derived}}


@dataclass(frozen=True)
class SLO:
    """Base declarative objective: ``compliance >= objective``."""

    name: str
    objective: float = 0.99
    description: str = ""

    def good_total(
        self, recorder: TimeSeriesRecorder, window_s: Optional[float]
    ) -> Tuple[float, float]:
        raise NotImplementedError

    def evaluate(
        self,
        recorder: TimeSeriesRecorder,
        window_s: Optional[float] = None,
    ) -> SLOStatus:
        good, total = self.good_total(recorder, window_s)
        return SLOStatus(
            name=self.name,
            objective=self.objective,
            window_s=window_s,
            good=good,
            total=total,
            description=self.description,
        )


@dataclass(frozen=True)
class AvailabilitySLO(SLO):
    """Counter-ratio goodness: ``good = total - sum(bad_metrics)``.

    The default wiring treats a query as *good* when it was answered
    exactly as planned — neither missed (no region approximation) nor
    served by a degraded dispatch (the fault-tolerant dispatcher
    skipped at least one perimeter sensor; ``execute()`` runs one
    dispatch per answered query, so dispatch counts and query counts
    are commensurable).
    """

    total_metric: str = "repro_queries_total"
    bad_metrics: Tuple[str, ...] = (
        "repro_query_misses_total",
        "repro_sim_degraded_dispatches_total",
    )

    def good_total(
        self, recorder: TimeSeriesRecorder, window_s: Optional[float]
    ) -> Tuple[float, float]:
        total = recorder.delta(self.total_metric, window_s)
        bad = sum(recorder.delta(m, window_s) for m in self.bad_metrics)
        return max(total - bad, 0.0), total


@dataclass(frozen=True)
class ThresholdSLO(SLO):
    """Histogram-threshold goodness: observations ``<= threshold``."""

    histogram: str = "repro_query_latency_seconds"
    threshold: float = 2e-3

    def good_total(
        self, recorder: TimeSeriesRecorder, window_s: Optional[float]
    ) -> Tuple[float, float]:
        return recorder.threshold_fraction(
            self.histogram, self.threshold, window_s
        )


def default_slos(
    availability: float = 0.9,
    latency_threshold: float = 2e-3,
    latency_objective: float = 0.95,
    containment_cap: float = 0.1,
    containment_objective: float = 0.9,
) -> Tuple[SLO, ...]:
    """The monitor's standard SLO panel."""
    return (
        AvailabilitySLO(
            name="availability",
            objective=availability,
            description="queries answered exactly (no miss, no "
            "fault degradation)",
        ),
        ThresholdSLO(
            name="latency",
            objective=latency_objective,
            threshold=latency_threshold,
            description=f"query latency <= {latency_threshold * 1e3:g}ms",
        ),
        ThresholdSLO(
            name="containment",
            objective=containment_objective,
            histogram="repro_query_degradation",
            threshold=containment_cap,
            description="degraded dispatches losing <= "
            f"{containment_cap:.0%} of their boundary chain",
        ),
    )


@dataclass(frozen=True)
class Alert:
    """One threshold crossing of one SLO."""

    t: float
    slo: str
    #: ``"breach"`` (ok → violated) or ``"recover"`` (violated → ok).
    event: str
    compliance: float
    objective: float
    burn_rate: float

    def format(self) -> str:
        arrow = "!" if self.event == "breach" else "+"
        return (
            f"[{arrow}] t={self.t:.1f}s {self.slo} {self.event}: "
            f"compliance {self.compliance:.1%} vs objective "
            f"{self.objective:.1%} (burn {self.burn_rate:.1f}x)"
        )


class AlertLog:
    """Records SLO threshold crossings across a run."""

    def __init__(self) -> None:
        self.alerts: List[Alert] = []
        self._ok_state: Dict[str, bool] = {}

    def observe(self, t: float, statuses: Sequence[SLOStatus]) -> List[Alert]:
        """Feed one evaluation round; returns newly fired alerts."""
        fired: List[Alert] = []
        for status in statuses:
            previous = self._ok_state.get(status.name, True)
            if status.ok != previous:
                alert = Alert(
                    t=t,
                    slo=status.name,
                    event="recover" if status.ok else "breach",
                    compliance=status.compliance,
                    objective=status.objective,
                    burn_rate=status.burn_rate,
                )
                self.alerts.append(alert)
                fired.append(alert)
            self._ok_state[status.name] = status.ok
        return fired

    def __len__(self) -> int:
        return len(self.alerts)

    def format(self) -> str:
        if not self.alerts:
            return "no SLO threshold crossings"
        return "\n".join(alert.format() for alert in self.alerts)

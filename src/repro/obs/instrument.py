"""The per-pipeline instrumentation bundle.

:class:`Instrumentation` is what :class:`repro.core.InNetworkFramework`,
:class:`repro.evaluation.Pipeline`, :class:`repro.query.QueryEngine` and
:class:`repro.network.NetworkSimulator` accept: a tracer, a metrics
registry, and a provenance switch.  The default (:data:`NULL_INSTRUMENTATION`)
is a no-op recorder — a shared null tracer, the null registry, and
provenance off.  It is the bundle every untraced run of the end-to-end
benchmark (``BENCHMARK.json``) deploys with, so its cost is inside each
end-to-end metric there; what a live bundle adds on the hot path is that
benchmark's ``obs.overhead_pct`` on ``dashboard_hot`` (budget ≤5%).

``Instrumentation.on()`` builds a live bundle: a fresh
:class:`~repro.obs.trace.Tracer` plus (by default) the process-global
metrics registry, with provenance enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .metrics import (
    MetricsRegistry,
    NULL_REGISTRY,
    NullMetricsRegistry,
    get_registry,
)
from .profile import Profiler
from .trace import NULL_TRACER, NullTracer, Tracer


@dataclass
class Instrumentation:
    """Tracer + metrics registry + provenance switch for one pipeline."""

    tracer: Union[Tracer, NullTracer] = field(default_factory=Tracer)
    metrics: Union[MetricsRegistry, NullMetricsRegistry] = field(
        default_factory=get_registry
    )
    provenance: bool = False
    #: Optional continuous sampling profiler (default off; enabled via
    #: ``FrameworkConfig.profile_hz`` or ``demo --profile``).
    profiler: Optional[Profiler] = None

    @property
    def active(self) -> bool:
        """Anything beyond plain global-metrics accounting enabled?"""
        return self.provenance or self.tracer.enabled

    @classmethod
    def off(cls) -> "Instrumentation":
        """The shared no-op bundle (the default everywhere)."""
        return NULL_INSTRUMENTATION

    @classmethod
    def on(
        cls,
        provenance: bool = True,
        metrics: Union[MetricsRegistry, None] = None,
    ) -> "Instrumentation":
        """A live bundle: fresh tracer, global (or given) registry."""
        return cls(
            tracer=Tracer(),
            metrics=metrics if metrics is not None else get_registry(),
            provenance=provenance,
        )


#: The default no-op bundle.  Shared safely: the null tracer and null
#: registry hold no state.
NULL_INSTRUMENTATION = Instrumentation(
    tracer=NULL_TRACER, metrics=NULL_REGISTRY, provenance=False
)

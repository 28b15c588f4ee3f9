"""The per-pipeline instrumentation bundle.

:class:`Instrumentation` is what :class:`repro.core.InNetworkFramework`,
:class:`repro.evaluation.Pipeline`, :class:`repro.query.QueryEngine` and
:class:`repro.network.NetworkSimulator` accept: a tracer, a provenance
switch and an optional profiler.  The default
(:data:`NULL_INSTRUMENTATION`) is a no-op recorder — a shared null
tracer and provenance off.  It is the bundle every untraced run of the
end-to-end benchmark (``BENCHMARK.json``) deploys with, so its cost is
inside each end-to-end metric there; what a live bundle adds on the hot
path is that benchmark's ``obs.overhead_pct`` on ``dashboard_hot``
(budget ≤5%).

Metrics are not part of the bundle: every component binds its
instruments to the process-global registry current when it is built
(:func:`repro.obs.get_registry`), so a pipeline is counted in isolation
by building it inside :func:`repro.obs.use_registry`.

``Instrumentation.on()`` builds a live bundle: a fresh
:class:`~repro.obs.trace.Tracer` with provenance enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .profile import Profiler
from .trace import NULL_TRACER, NullTracer, Tracer


@dataclass
class Instrumentation:
    """Tracer + provenance switch (+ profiler) for one pipeline."""

    tracer: Union[Tracer, NullTracer] = field(default_factory=Tracer)
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
    def on(cls, provenance: bool = True) -> "Instrumentation":
        """A live bundle: fresh tracer, provenance on by default."""
        return cls(tracer=Tracer(), provenance=provenance)


#: The default no-op bundle.  Shared safely: the null tracer holds no
#: state.
NULL_INSTRUMENTATION = Instrumentation(tracer=NULL_TRACER, provenance=False)

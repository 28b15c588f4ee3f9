"""The per-pipeline instrumentation bundle.

:class:`Instrumentation` is what :class:`repro.core.InNetworkFramework`,
:class:`repro.query.QueryEngine` and
:class:`repro.network.NetworkSimulator` accept: a tracer.  The default
(:data:`NULL_INSTRUMENTATION`) is a no-op recorder — the shared null
tracer.  It is the bundle every untraced run of the end-to-end
benchmark (``BENCHMARK.json``) deploys with, so its cost is inside each
end-to-end metric there; what a live bundle adds on the hot path is
that benchmark's ``obs.overhead_pct`` on ``dashboard_hot`` (budget
≤5%).

What a query measured about itself is not the bundle's business: every
:class:`~repro.query.QueryResult` carries its internals and stage
times, live bundle or not.  Metrics are not part of the bundle either:
every component binds its instruments to the process-global registry
current when it is built (:func:`repro.obs.get_registry`), so a
pipeline is counted in isolation by building it inside
:func:`repro.obs.use_registry`.

``Instrumentation.on()`` builds a live bundle: a fresh
:class:`~repro.obs.trace.Tracer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .trace import NULL_TRACER, NullTracer, Tracer


@dataclass
class Instrumentation:
    """The tracer of one pipeline."""

    tracer: Union[Tracer, NullTracer] = field(default_factory=Tracer)
    #: Accepted and never read: the internals it once switched on are
    #: always on the record.  It stays for exactly one caller —
    #: ``benchmarks/e2e/layers.py`` passes ``provenance=True`` and only
    #: a ``benchmark`` PR may edit that directory (ROADMAP item 5 drops
    #: the argument; this field goes with it).
    provenance: bool = False

    @classmethod
    def on(cls) -> "Instrumentation":
        """A live bundle: a fresh tracer."""
        return cls(tracer=Tracer())


#: The default no-op bundle.  Shared safely: the null tracer holds no
#: state.
NULL_INSTRUMENTATION = Instrumentation(tracer=NULL_TRACER)

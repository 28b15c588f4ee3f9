"""In-network approximate spatiotemporal range queries on moving objects.

Reproduction of Yang & Ghosh, *In-Network Approximate and Efficient
Spatiotemporal Range Queries on Moving Objects*, EDBT 2024.

The public API lives in :mod:`repro.core` (the framework pipeline); the
subpackages expose every substrate individually:

- :mod:`repro.geometry` - planar computational geometry
- :mod:`repro.planar` - planar graphs, faces, chains, duals
- :mod:`repro.forms` - discrete differential 1-forms and tracking forms
- :mod:`repro.mobility` - road networks, strata, mobility domain
- :mod:`repro.trajectories` - moving-object workloads and crossing events
- :mod:`repro.selection` - sensor sampling and submodular placement
- :mod:`repro.sampling` - sampled-graph (G~) construction
- :mod:`repro.query` - query regions and the query engine
- :mod:`repro.models` - learned (regression) count models
- :mod:`repro.network` - in-network communication simulator
- :mod:`repro.evaluation` - experiment scale, query workloads, error metric

The figure harness and the systems the paper compares against (the
Euler-histogram baseline, the FM sketch, the dead-space decompositions,
the energy model) are experiments, not the system: they live under
``benchmarks/lib/``.
"""

__version__ = "1.0.0"

from .core import FrameworkConfig, InNetworkFramework
from .errors import (
    ConfigurationError,
    GeometryError,
    GraphStructureError,
    ModelError,
    PlanarityError,
    QueryError,
    ReproError,
    SelectionError,
    WorkloadError,
)

__all__ = [
    "ConfigurationError",
    "FrameworkConfig",
    "InNetworkFramework",
    "GeometryError",
    "GraphStructureError",
    "ModelError",
    "PlanarityError",
    "QueryError",
    "ReproError",
    "SelectionError",
    "WorkloadError",
    "__version__",
]

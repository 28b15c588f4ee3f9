"""Planar graphs and cell complexes (system S2 in DESIGN.md).

Embedded planar graphs with rotation systems, face tracing (2-cells),
chains with the discrete boundary operator, dual-graph construction
(mobility graph <-> sensing graph duality, §3.2 of the paper) and
planarization of drawn graphs.
"""

from .chains import Chain, region_boundary
from .dual import DualGraph, build_dual
from .faces import Face, FaceSet, euler_characteristic, trace_faces
from .graph import Edge, EdgeInterner, NodeId, PlanarGraph, canonical_edge
from .planarize import largest_component, planarize, prune_degree_one

__all__ = [
    "Chain",
    "DualGraph",
    "Edge",
    "EdgeInterner",
    "Face",
    "FaceSet",
    "NodeId",
    "PlanarGraph",
    "build_dual",
    "canonical_edge",
    "euler_characteristic",
    "largest_component",
    "planarize",
    "prune_degree_one",
    "region_boundary",
    "trace_faces",
]

"""Sampled-graph construction (system S8): connectivity generation,
shortest-path wall routing and the operational SensorNetwork."""

from .connectivity import knn_edges, triangulation_edges
from .network import (
    CompiledNetworkIndex,
    SensorNetwork,
    full_network,
    sampled_network,
    wall_network,
)

__all__ = [
    "CompiledNetworkIndex",
    "SensorNetwork",
    "full_network",
    "knn_edges",
    "sampled_network",
    "triangulation_edges",
    "wall_network",
]

"""Sampled-graph construction (system S8): connectivity generation,
shortest-path wall routing and the operational SensorNetwork."""

from .axis_aligned import (
    calibrate_grid_to_walls,
    grid_decomposition_network,
    kd_decomposition_network,
)
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
    "calibrate_grid_to_walls",
    "full_network",
    "grid_decomposition_network",
    "kd_decomposition_network",
    "knn_edges",
    "sampled_network",
    "triangulation_edges",
    "wall_network",
]

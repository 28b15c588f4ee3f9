"""Axis-aligned spatial decompositions (the dead-space strawman).

§3.1.1 argues that grid/kd-tree/QuadTree subdivisions designed for
centralized systems create *dead space* when used to partition a sensor
network: cell boundaries cut through areas with no traffic while busy
corridors end up over-divided.  To reproduce that argument empirically,
this module builds sensing configurations whose walls come from an
axis-aligned partition of the *space* (not of the sensor distribution):

- :func:`grid_decomposition_network` — a regular RxC grid of cells;
- :func:`kd_decomposition_network` — recursive median splits of the
  junctions by alternating axis (a kd-tree over space).

A road edge becomes a wall when its endpoints fall in different cells.
The companion benchmark compares these against the planar-graph
sampled networks at equal wall budgets.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.errors import SelectionError
from repro.mobility import MobilityDomain
from repro.planar import NodeId, canonical_edge
from repro.sampling.network import SensorNetwork, Wall


def grid_decomposition_network(
    domain: MobilityDomain,
    rows: int,
    cols: int,
    name: str = "grid-decomposition",
) -> SensorNetwork:
    """Sensing walls from a regular grid partition of the domain."""
    if rows < 1 or cols < 1:
        raise SelectionError("grid decomposition needs positive rows/cols")
    bounds = domain.bounds

    def cell_of(junction: NodeId) -> Tuple[int, int]:
        x, y = domain.position(junction)
        cx = min(int((x - bounds.min_x) / bounds.width * cols), cols - 1)
        cy = min(int((y - bounds.min_y) / bounds.height * rows), rows - 1)
        return (cx, cy)

    labels = {junction: cell_of(junction) for junction in domain.junctions}
    return _network_from_labels(domain, labels, name)


def kd_decomposition_network(
    domain: MobilityDomain,
    leaves: int,
    name: str = "kd-decomposition",
) -> SensorNetwork:
    """Sensing walls from a kd-tree partition of the junctions."""
    if leaves < 1:
        raise SelectionError("kd decomposition needs >= 1 leaf")
    junctions = list(domain.junctions)
    positions = np.array([domain.position(j) for j in junctions])

    # Largest-leaf-first median splits until the leaf budget is hit.
    import heapq

    heap: List[Tuple[int, int, np.ndarray]] = [
        (-len(junctions), 0, np.arange(len(junctions)))
    ]
    serial = 1
    while len(heap) < leaves:
        neg_size, _, indices = heapq.heappop(heap)
        if len(indices) <= 1:
            heapq.heappush(heap, (neg_size, serial, indices))
            serial += 1
            break
        span = positions[indices].max(axis=0) - positions[indices].min(axis=0)
        axis = 0 if span[0] >= span[1] else 1
        values = positions[indices, axis]
        median = float(np.median(values))
        left_mask = values <= median
        if left_mask.all() or not left_mask.any():
            left_mask = values < median
            if not left_mask.any():
                heapq.heappush(heap, (0, serial, indices))
                serial += 1
                continue
        for part in (indices[left_mask], indices[~left_mask]):
            heapq.heappush(heap, (-len(part), serial, part))
            serial += 1

    labels: Dict[NodeId, int] = {}
    for leaf_id, (_, _, indices) in enumerate(heap):
        for index in indices:
            labels[junctions[index]] = leaf_id
    return _network_from_labels(domain, labels, name)


def _network_from_labels(
    domain: MobilityDomain,
    labels: Dict[NodeId, object],
    name: str,
) -> SensorNetwork:
    """Walls = road edges whose endpoints carry different labels,
    plus the EXT geofence (every cell is a closed sensing region —
    otherwise rim cells would leak into the unenclosed exterior)."""
    walls: Set[Wall] = set()
    for u, v in domain.graph.edges():
        if labels[u] != labels[v]:
            walls.add(canonical_edge(u, v))
    for rim in domain.boundary_junctions:
        walls.add(canonical_edge("__ext__", rim))
    # One communication sensor per non-empty cell: the block nearest
    # the cell's junction centroid stands in for its aggregator.
    by_label: Dict[object, List[NodeId]] = {}
    for junction, label in labels.items():
        by_label.setdefault(label, []).append(junction)
    sensors: Set[int] = set()
    outer = domain.dual.outer_node
    for members in by_label.values():
        xs = [domain.position(j)[0] for j in members]
        ys = [domain.position(j)[1] for j in members]
        anchor = domain.nearest_junction(
            (sum(xs) / len(xs), sum(ys) / len(ys))
        )
        for neighbour in domain.graph.neighbors(anchor):
            left, right = domain.dual.faces_of_primal_edge(anchor, neighbour)
            for block in (left, right):
                if block != outer:
                    sensors.add(block)
                    break
            break
    return SensorNetwork(
        domain=domain,
        sensors=tuple(sorted(sensors)),
        walls=frozenset(walls),
        name=name,
    )


def calibrate_grid_to_walls(
    domain: MobilityDomain, target_walls: int
) -> Tuple[int, int]:
    """Grid shape whose decomposition yields ~``target_walls`` walls.

    Walls of an RxC grid scale with the total boundary length, i.e.
    roughly linearly in R + C; a square grid is assumed.  Search over
    square sizes and return the closest.
    """
    if target_walls < 1:
        raise SelectionError("target_walls must be positive")
    best: Tuple[int, int] = (1, 1)
    best_gap = float("inf")
    for side in range(1, 40):
        network = grid_decomposition_network(domain, side, side)
        gap = abs(len(network.walls) - target_walls)
        if gap < best_gap:
            best_gap = gap
            best = (side, side)
        if len(network.walls) > target_walls * 1.6:
            break
    return best

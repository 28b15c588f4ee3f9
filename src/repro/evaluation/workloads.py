"""Experiment scale and query workload generation (§5.1.5).

:class:`PipelineConfig` fixes the scale and seeds of one experiment
world (city, trips, query battery); the figure harness under
``benchmarks/lib/`` and the end-to-end benchmark both build from it.

Rectangular spatial regions of a target area (expressed as a fraction
of the total sensing area, matching the paper's x-axes), random aspect
ratio and placement, paired with randomly placed temporal windows.
Rectangles that contain no junction are rejected and resampled, since
they can never resolve to a region of the sensing graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import ConfigurationError, WorkloadError
from ..geometry import BBox
from ..mobility import MobilityDomain
from ..query import LOWER, STATIC, RangeQuery


@dataclass(frozen=True)
class PipelineConfig:
    """Scale and seeds for one experiment pipeline."""

    city: str = "organic"
    blocks: int = 1000
    road_seed: int = 3
    n_trips: int = 8000
    horizon_days: float = 2.0
    mean_dwell: float = 7200.0
    trip_seed: int = 5
    #: Historical queries per standard area fraction of the figure
    #: harness; their union is the submodular history (the paper's
    #: "100 query regions ... as the historical data").
    history_per_fraction: int = 20
    query_seed: int = 13
    districts: int = 8

    def __post_init__(self) -> None:
        if self.city not in ("organic", "grid", "radial"):
            raise ConfigurationError(f"unknown city kind {self.city!r}")


#: The default scale used by the figure benchmarks.
DEFAULT_CONFIG = PipelineConfig()

#: A small configuration for fast tests.
SMALL_CONFIG = PipelineConfig(
    blocks=80, n_trips=600, history_per_fraction=5
)


@dataclass(frozen=True)
class QueryWorkloadConfig:
    """Parameters for one batch of random range queries."""

    n_queries: int = 50
    #: Query area as a fraction of the domain bounding-box area
    #: (the paper's 1.08% default is ``0.0108``).
    area_fraction: float = 0.0108
    aspect_low: float = 0.5
    aspect_high: float = 2.0
    #: Temporal window length as a fraction of the horizon (the paper
    #: samples 7-day windows out of its multi-year data).
    window_fraction: float = 0.25
    kind: str = STATIC
    bound: str = LOWER
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_queries < 1:
            raise WorkloadError("n_queries must be positive")
        if not 0 < self.area_fraction <= 1:
            raise WorkloadError("area_fraction must be in (0, 1]")
        if not 0 < self.window_fraction <= 1:
            raise WorkloadError("window_fraction must be in (0, 1]")
        if self.aspect_low <= 0 or self.aspect_high < self.aspect_low:
            raise WorkloadError("invalid aspect range")


def generate_queries(
    domain: MobilityDomain,
    horizon: float,
    config: QueryWorkloadConfig = QueryWorkloadConfig(),
) -> List[RangeQuery]:
    """Generate a reproducible batch of range queries.

    Spatial placement keeps the whole rectangle inside the domain
    bounding box; the temporal window is placed uniformly within the
    horizon's central 90% so that both ends see traffic.
    """
    rng = np.random.default_rng(config.seed)
    bounds = domain.bounds
    total_area = bounds.area
    queries: List[RangeQuery] = []
    attempts = 0
    max_attempts = config.n_queries * 50
    while len(queries) < config.n_queries:
        attempts += 1
        if attempts > max_attempts:
            raise WorkloadError(
                f"could not place {config.n_queries} non-empty queries "
                f"at area fraction {config.area_fraction}"
            )
        area = config.area_fraction * total_area
        aspect = float(rng.uniform(config.aspect_low, config.aspect_high))
        width = math.sqrt(area * aspect)
        height = area / width
        if width > bounds.width or height > bounds.height:
            # Degenerate for very large fractions: clamp to the domain.
            width = min(width, bounds.width)
            height = min(area / width, bounds.height)
        cx = float(
            rng.uniform(bounds.min_x + width / 2, bounds.max_x - width / 2)
        )
        cy = float(
            rng.uniform(bounds.min_y + height / 2, bounds.max_y - height / 2)
        )
        box = BBox.from_center((cx, cy), width, height)
        if not domain.junctions_in_bbox(box):
            continue

        window = config.window_fraction * horizon
        t1 = float(rng.uniform(0.05 * horizon, 0.95 * horizon - window))
        queries.append(
            RangeQuery(
                box=box,
                t1=t1,
                t2=t1 + window,
                kind=config.kind,
                bound=config.bound,
            )
        )
    return queries


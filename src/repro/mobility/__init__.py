"""Mobility domain substrate (system S4): road networks, strata and
the :class:`MobilityDomain` pipeline bundle."""

from .domain import EXT, MobilityDomain
from .roadnet import grid_city, organic_city, radial_city
from .strata import Strata, grid_strata, voronoi_strata

__all__ = [
    "EXT",
    "MobilityDomain",
    "Strata",
    "grid_city",
    "grid_strata",
    "organic_city",
    "radial_city",
    "voronoi_strata",
]

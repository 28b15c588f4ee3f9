"""Sensor selection: query-oblivious sampling (§4.3) and
query-adaptive submodular maximization (§4.4)."""

from .base import Selector, SensorCandidates
from .hierarchical import KDTreeSelector, QuadTreeSelector
from .regions import Atom, overlap_atoms
from .samplers import StratifiedSelector, SystematicSelector, UniformSelector
from .submodular import SubmodularPlan, SubmodularSelector, lazy_greedy_select

__all__ = [
    "Atom",
    "KDTreeSelector",
    "QuadTreeSelector",
    "Selector",
    "SensorCandidates",
    "StratifiedSelector",
    "SubmodularPlan",
    "SubmodularSelector",
    "SystematicSelector",
    "UniformSelector",
    "lazy_greedy_select",
    "overlap_atoms",
]

"""Unit tests for overlap atoms and submodular maximization."""

import numpy as np
import pytest

from repro.errors import SelectionError
from repro.geometry import BBox
from repro.selection import (
    SubmodularSelector,
    lazy_greedy_select,
    overlap_atoms,
)


# ----------------------------------------------------------------------
# Generic lazy greedy
# ----------------------------------------------------------------------
class TestLazyGreedy:
    def test_coverage_maximization(self):
        """Classic set cover: greedy picks the big set first."""
        sets = {
            "big": {1, 2, 3, 4, 5},
            "left": {1, 2, 3},
            "right": {4, 5, 6},
            "tiny": {7},
        }

        def gain(name, state):
            covered = set().union(*(sets[s] for s in state)) if state else set()
            return len(sets[name] - covered)

        chosen = lazy_greedy_select(
            list(sets),
            gain=gain,
            cost=lambda name, state: 1.0,
            budget=2,
            use_ratio=False,
        )
        assert chosen[0] == "big"
        # Second pick adds the most new elements: "right" adds 1 (6),
        # "tiny" adds 1 (7) — either is valid; "left" adds 0.
        assert chosen[1] in ("right", "tiny")

    def test_cost_benefit_ratio(self):
        """With ratio ranking, a cheap medium set beats a pricey big one."""
        gains = {"big": 10.0, "cheap": 6.0}
        costs = {"big": 10.0, "cheap": 2.0}
        chosen = lazy_greedy_select(
            ["big", "cheap"],
            gain=lambda e, s: gains[e] if e not in s else 0.0,
            cost=lambda e, s: costs[e],
            budget=10.0,
            use_ratio=True,
        )
        assert chosen[0] == "cheap"

    def test_budget_respected(self):
        chosen = lazy_greedy_select(
            ["a", "b", "c"],
            gain=lambda e, s: 1.0,
            cost=lambda e, s: 4.0,
            budget=9.0,
        )
        assert len(chosen) == 2

    def test_zero_gain_elements_skipped(self):
        chosen = lazy_greedy_select(
            ["useless", "useful"],
            gain=lambda e, s: 0.0 if e == "useless" else 1.0,
            cost=lambda e, s: 1.0,
            budget=10.0,
        )
        assert chosen == ["useful"]

    def test_invalid_budget(self):
        with pytest.raises(SelectionError):
            lazy_greedy_select([], lambda e, s: 1, lambda e, s: 1, 0)

    def test_lazy_reevaluation_correct(self):
        """Diminishing marginal gains: lazy result == eager greedy."""
        universe = list(range(30))
        rng = np.random.default_rng(0)
        sets = {
            i: set(rng.choice(30, size=rng.integers(2, 10), replace=False))
            for i in range(12)
        }

        def gain(e, state):
            covered = (
                set().union(*(sets[s] for s in state)) if state else set()
            )
            return float(len(sets[e] - covered))

        lazy = lazy_greedy_select(
            list(sets), gain, lambda e, s: 1.0, budget=5, use_ratio=False
        )

        # Eager reference implementation.
        eager, chosen = [], ()
        for _ in range(5):
            best = max(
                (e for e in sets if e not in chosen),
                key=lambda e: (gain(e, chosen), -e),
            )
            if gain(best, chosen) <= 0:
                break
            eager.append(best)
            chosen = tuple(eager)
        assert [gain(e, tuple(lazy[:i])) for i, e in enumerate(lazy)] == [
            gain(e, tuple(eager[:i])) for i, e in enumerate(eager)
        ]


# ----------------------------------------------------------------------
# Overlap atoms (Fig. 5)
# ----------------------------------------------------------------------
class TestOverlapAtoms:
    def test_disjoint_queries_one_atom_each(self, grid_domain):
        r1 = grid_domain.junctions_in_bbox(BBox(0, 0, 3.4, 3.4))
        r2 = grid_domain.junctions_in_bbox(BBox(6.6, 6.6, 10, 10))
        atoms = overlap_atoms(grid_domain, [r1, r2])
        assert len(atoms) == 2
        assert {a.queries for a in atoms} == {
            frozenset({0}),
            frozenset({1}),
        }

    def test_overlapping_queries_partition(self, grid_domain):
        """Fig. 5: two overlapping regions -> three disjoint atoms."""
        r1 = grid_domain.junctions_in_bbox(BBox(0, 0, 5.1, 10))
        r2 = grid_domain.junctions_in_bbox(BBox(3.2, 0, 10, 10))
        atoms = overlap_atoms(grid_domain, [r1, r2])
        signatures = sorted(
            tuple(sorted(a.queries)) for a in atoms
        )
        assert signatures == [(0,), (0, 1), (1,)]
        union = set()
        for atom in atoms:
            assert not (union & atom.junctions)  # disjoint
            union |= atom.junctions
        assert union == r1 | r2

    def test_atom_utility_eq6(self, grid_domain):
        r1 = grid_domain.junctions_in_bbox(BBox(0, 0, 5.1, 10))
        r2 = grid_domain.junctions_in_bbox(BBox(3.2, 0, 10, 10))
        atoms = overlap_atoms(grid_domain, [r1, r2])
        weights = [len(r1), len(r2)]
        overlap = next(a for a in atoms if a.queries == frozenset({0, 1}))
        expected = overlap.weight / len(r1) + overlap.weight / len(r2)
        assert overlap.utility(weights) == pytest.approx(expected)

    def test_atom_cost_is_boundary_edges(self, grid_domain):
        region = grid_domain.junctions_in_bbox(BBox(3, 3, 7, 7))
        atoms = overlap_atoms(grid_domain, [region])
        atom = atoms[0]
        assert len(atom.boundary) == len(
            grid_domain.inward_boundary_edges(region)
        )

    def test_empty_history_rejected(self, grid_domain):
        with pytest.raises(SelectionError):
            overlap_atoms(grid_domain, [])


# ----------------------------------------------------------------------
# SubmodularSelector
# ----------------------------------------------------------------------
class TestSubmodularSelector:
    def test_plan_covers_history_with_big_budget(self, grid_domain):
        history = [
            grid_domain.junctions_in_bbox(BBox(0, 0, 4, 4)),
            grid_domain.junctions_in_bbox(BBox(5, 5, 10, 10)),
        ]
        selector = SubmodularSelector(grid_domain, history)
        plan = selector.plan(10_000, budget_unit="edges")
        covered = set()
        for atom in plan.atoms:
            covered |= atom.junctions
        assert covered == history[0] | history[1]
        assert plan.walls  # boundaries materialised

    def test_plan_respects_edge_budget(self, grid_domain):
        history = [grid_domain.junctions_in_bbox(BBox(0, 0, 4, 4))]
        selector = SubmodularSelector(grid_domain, history)
        tiny = selector.plan(1, budget_unit="edges")
        assert len(tiny.walls) <= 1 or not tiny.atoms

    def test_sensor_budget_unit(self, grid_domain):
        history = [
            grid_domain.junctions_in_bbox(BBox(0, 0, 4, 4)),
            grid_domain.junctions_in_bbox(BBox(5, 5, 10, 10)),
        ]
        plan = SubmodularSelector(grid_domain, history).plan(
            8, budget_unit="sensors"
        )
        assert len(plan.sensors) <= 8 + 24  # greedy may slightly round

    def test_invalid_budget_unit(self, grid_domain):
        history = [grid_domain.junctions_in_bbox(BBox(0, 0, 4, 4))]
        with pytest.raises(SelectionError):
            SubmodularSelector(grid_domain, history).plan(5, budget_unit="x")

    def test_empty_history_rejected(self, grid_domain):
        with pytest.raises(SelectionError):
            SubmodularSelector(grid_domain, [])

    def test_selector_interface(self, grid_domain):
        from repro.selection import SensorCandidates

        history = [grid_domain.junctions_in_bbox(BBox(0, 0, 6, 6))]
        selector = SubmodularSelector(grid_domain, history)
        candidates = SensorCandidates.from_domain(grid_domain)
        chosen = selector.select(candidates, 5, np.random.default_rng(0))
        assert len(chosen) <= 5

"""Property-based tests (hypothesis) for the core invariants.

The deepest invariant of the paper — Theorem 4.1/4.2: boundary
integration of crossing counts equals exact occupancy for arbitrary
movement histories — is checked here against randomly generated
movement sequences and randomly sampled wall configurations.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.forms import SnapshotForm, TrackingForm
from repro.geometry import BBox, signed_area
from repro.models import (
    LinearModel,
    PiecewiseLinearModel,
    StepHistogramModel,
)
from repro.planar import Chain

# ----------------------------------------------------------------------
# A tiny world for movement simulations: nodes 0..8 in a 3x3 grid plus
# an EXT node adjacent to the rim.
# ----------------------------------------------------------------------
GRID_NODES = list(range(9))
EXT = "ext"


def grid_neighbors(node):
    if node == EXT:
        return [0, 1, 2, 3, 5, 6, 7, 8]  # every rim node
    row, col = divmod(node, 3)
    result = []
    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        r, c = row + dr, col + dc
        if 0 <= r < 3 and 0 <= c < 3:
            result.append(r * 3 + c)
    if node != 4:  # rim nodes touch EXT
        result.append(EXT)
    return result


@st.composite
def movement_history(draw):
    """Random walks of several objects over the grid world.

    Every object starts at EXT; each step moves to a neighbour.
    Returns the list of per-object position sequences.
    """
    n_objects = draw(st.integers(1, 4))
    histories = []
    for _ in range(n_objects):
        position = EXT
        sequence = [position]
        for _ in range(draw(st.integers(0, 12))):
            position = draw(st.sampled_from(grid_neighbors(position)))
            sequence.append(position)
        histories.append(sequence)
    return histories


regions = st.sets(st.sampled_from(GRID_NODES), min_size=1, max_size=8)


def region_boundary_edges(region):
    """Inward directed sensing edges of a grid-world region."""
    edges = []
    for v in region:
        for u in grid_neighbors(v):
            if u == EXT or u not in region:
                edges.append((u, v))
    return edges


class TestTheorem41Property:
    @settings(max_examples=150, deadline=None)
    @given(histories=movement_history(), region=regions)
    def test_snapshot_integration_equals_occupancy(self, histories, region):
        form = SnapshotForm()
        for sequence in histories:
            for a, b in zip(sequence, sequence[1:]):
                form.record(a, b)
        boundary = region_boundary_edges(region)
        occupancy = sum(1 for s in histories if s[-1] in region)
        assert form.integrate_edges(boundary) == occupancy

    @settings(max_examples=100, deadline=None)
    @given(histories=movement_history(), region=regions,
           probe=st.integers(0, 30))
    def test_tracking_integration_equals_occupancy_at_time(
        self, histories, region, probe
    ):
        """Theorem 4.2 with step-indexed timestamps."""
        form = TrackingForm()
        for sequence in histories:
            for step, (a, b) in enumerate(zip(sequence, sequence[1:])):
                form.record(a, b, float(step))
        boundary = region_boundary_edges(region)

        def position_at(sequence, t):
            # After step k the object sits at sequence[k + 1].
            index = min(int(t) + 1, len(sequence) - 1)
            return sequence[index]

        occupancy = sum(
            1 for s in histories if position_at(s, probe) in region
        )
        assert form.integrate_until(boundary, float(probe)) == occupancy

    @settings(max_examples=100, deadline=None)
    @given(histories=movement_history(), region=regions,
           t1=st.integers(0, 15), t2=st.integers(0, 15))
    def test_transient_is_difference_of_statics(
        self, histories, region, t1, t2
    ):
        """Theorem 4.3 == N(t2) - N(t1) identically."""
        t1, t2 = sorted((t1, t2))
        form = TrackingForm()
        for sequence in histories:
            for step, (a, b) in enumerate(zip(sequence, sequence[1:])):
                form.record(a, b, float(step))
        boundary = region_boundary_edges(region)
        assert form.integrate_between(
            boundary, float(t1), float(t2)
        ) == form.integrate_until(boundary, float(t2)) - form.integrate_until(
            boundary, float(t1)
        )


class TestChainProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=30,
        )
    )
    def test_antisymmetry_invariant(self, edges):
        chain = Chain()
        for edge in edges:
            chain.add(edge)
        for u in range(6):
            for v in range(6):
                if u != v:
                    assert chain.coefficient((u, v)) == -chain.coefficient(
                        (v, u)
                    )

    @settings(max_examples=200, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=20,
        )
    )
    def test_chain_plus_negation_is_zero(self, edges):
        chain = Chain.from_edges(edges)
        total = chain + (-chain)
        assert len(total) == 0


class TestGeometryProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(-50, 50, allow_nan=False),
                st.floats(-50, 50, allow_nan=False),
            ),
            min_size=3,
            max_size=12,
        )
    )
    def test_signed_area_antisymmetric(self, points):
        forward = signed_area(points)
        backward = signed_area(list(reversed(points)))
        scale = max(abs(forward), abs(backward), 1.0)
        assert abs(forward + backward) <= 1e-9 * scale

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(-100, 100, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_bbox_contains_inputs(self, points):
        box = BBox.from_points(points)
        assert all(
            box.min_x <= x <= box.max_x and box.min_y <= y <= box.max_y
            for x, y in points
        )


timestamp_lists = st.lists(
    st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


class TestModelProperties:
    @settings(max_examples=60, deadline=None)
    @given(times=timestamp_lists, probe=st.floats(-1e6, 2e6, allow_nan=False))
    def test_predictions_bounded(self, times, probe):
        for factory in (LinearModel, PiecewiseLinearModel, StepHistogramModel):
            model = factory().fit(times)
            value = model.predict(probe)
            assert 0.0 <= value <= len(times)

    @settings(max_examples=60, deadline=None)
    @given(times=timestamp_lists)
    def test_piecewise_monotone(self, times):
        model = PiecewiseLinearModel(segments=5).fit(times)
        lo, hi = min(times), max(times)
        probes = np.linspace(lo, hi, 20)
        values = [model.predict(float(t)) for t in probes]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestDoubleCountingProperty:
    @settings(max_examples=100, deadline=None)
    @given(rounds=st.integers(1, 20))
    def test_repeated_reentry_counts_once(self, rounds):
        """§3.1.2: any number of exit/re-enter cycles nets one object."""
        form = SnapshotForm()
        form.record("out", "in")  # initial entry
        for _ in range(rounds):
            form.record("in", "out")
            form.record("out", "in")
        assert form.integrate_edges([("out", "in")]) == 1

"""Unit tests for the incremental learned store (§4.8 extension)."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.models import (
    BufferedEdgeStore,
    IncrementalEdgeStore,
    PiecewiseLinearModel,
)


def fill(store, times, edge=("a", "b")):
    for t in times:
        store.record(edge[0], edge[1], float(t))


class TestValidation:
    def test_invalid_buffer_size(self):
        with pytest.raises(ModelError):
            IncrementalEdgeStore(PiecewiseLinearModel, buffer_size=0)

    def test_invalid_resample_points(self):
        with pytest.raises(ModelError):
            IncrementalEdgeStore(PiecewiseLinearModel, resample_points=1)

    def test_out_of_order_rejected(self):
        store = IncrementalEdgeStore(PiecewiseLinearModel)
        store.record("a", "b", 10.0)
        with pytest.raises(ModelError):
            store.record("a", "b", 5.0)


class TestCounting:
    def test_exact_while_buffered(self):
        store = IncrementalEdgeStore(PiecewiseLinearModel, buffer_size=100)
        fill(store, range(50))
        assert store.count_entering(("a", "b"), 25.0) == 26

    def test_total_preserved_across_flushes(self):
        store = IncrementalEdgeStore(
            PiecewiseLinearModel, buffer_size=64
        )
        times = np.sort(np.random.default_rng(0).uniform(0, 1000, 400))
        fill(store, times)
        total = store.count_entering(("a", "b"), 2000.0)
        assert total == pytest.approx(400, abs=2)

    def test_covers_whole_history_unlike_windowed(self):
        """The windowed store saturates for queries older than 2n
        events; the incremental store still answers them."""
        rng = np.random.default_rng(1)
        times = np.sort(rng.uniform(0, 10_000, 2000))
        incremental = IncrementalEdgeStore(
            PiecewiseLinearModel, buffer_size=128
        )
        windowed = BufferedEdgeStore(PiecewiseLinearModel, buffer_size=128)
        fill(incremental, times)
        fill(windowed, times)

        probe = float(times[500])  # deep in the past
        exact = 501
        inc_error = abs(incremental.count_entering(("a", "b"), probe) - exact)
        win_error = abs(windowed.count_entering(("a", "b"), probe) - exact)
        assert inc_error < win_error
        assert inc_error < 0.15 * 2000

    def test_storage_constant(self):
        store = IncrementalEdgeStore(
            PiecewiseLinearModel, buffer_size=64
        )
        fill(store, range(10_000))
        # One model + at most one partial buffer.
        assert store.storage_bytes <= (64 + 64) * 8

    def test_directions_independent(self):
        store = IncrementalEdgeStore(PiecewiseLinearModel, buffer_size=8)
        fill(store, range(20), edge=("a", "b"))
        fill(store, range(5), edge=("b", "a"))
        assert store.net_until(("a", "b"), 100.0) == pytest.approx(
            15, abs=2
        )

    def test_net_between_inverted_rejected(self):
        store = IncrementalEdgeStore(PiecewiseLinearModel)
        with pytest.raises(ModelError):
            store.net_between(("a", "b"), 5.0, 1.0)

    def test_empty_edge(self):
        store = IncrementalEdgeStore(PiecewiseLinearModel)
        assert store.count_entering(("x", "y"), 10.0) == 0.0

    def test_drift_bounded_over_many_flushes(self):
        """Compounded refits drift, but stay within a usable envelope."""
        store = IncrementalEdgeStore(
            PiecewiseLinearModel, buffer_size=50, resample_points=64
        )
        times = np.linspace(0, 1000, 1000)  # uniform: easy to refit
        fill(store, times)
        for probe, exact in ((250.0, 251), (500.0, 501), (750.0, 751)):
            assert store.count_entering(("a", "b"), probe) == pytest.approx(
                exact, rel=0.1
            )

"""Unit tests for learned count stores (ModeledCountStore, BufferedEdgeStore)."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.forms import TrackingForm
from repro.models import (
    BufferedEdgeStore,
    LinearModel,
    ModeledCountStore,
    PiecewiseLinearModel,
)


@pytest.fixture()
def busy_form() -> TrackingForm:
    form = TrackingForm()
    rng = np.random.default_rng(0)
    for t in np.sort(rng.uniform(0, 1000, 300)):
        form.record("a", "b", float(t))
    for t in np.sort(rng.uniform(0, 1000, 120)):
        form.record("b", "a", float(t))
    for t in np.sort(rng.uniform(0, 1000, 50)):
        form.record("c", "d", float(t))
    return form


class TestModeledCountStore:
    def test_tracks_exact_counts(self, busy_form):
        store = ModeledCountStore.fit(busy_form, PiecewiseLinearModel)
        for t in (100.0, 400.0, 900.0):
            exact = busy_form.count_entering(("a", "b"), t)
            approx = store.count_entering(("a", "b"), t)
            assert abs(approx - exact) <= 0.12 * 300

    def test_direction_streams_independent(self, busy_form):
        store = ModeledCountStore.fit(busy_form, PiecewiseLinearModel)
        forward = store.count_entering(("a", "b"), 1000.0)
        backward = store.count_entering(("b", "a"), 1000.0)
        assert forward == pytest.approx(300, abs=1)
        assert backward == pytest.approx(120, abs=1)

    def test_unknown_edge_zero(self, busy_form):
        store = ModeledCountStore.fit(busy_form, LinearModel)
        assert store.count_entering(("x", "y"), 10.0) == 0.0
        assert store.net_until(("x", "y"), 10.0) == 0.0

    def test_net_until_antisymmetric(self, busy_form):
        store = ModeledCountStore.fit(busy_form, LinearModel)
        assert store.net_until(("a", "b"), 500.0) == pytest.approx(
            -store.net_until(("b", "a"), 500.0)
        )

    def test_net_between_inverted_rejected(self, busy_form):
        store = ModeledCountStore.fit(busy_form, LinearModel)
        with pytest.raises(ModelError):
            store.net_between(("a", "b"), 10.0, 5.0)

    def test_storage_independent_of_events(self):
        small_form = TrackingForm()
        large_form = TrackingForm()
        for t in range(10):
            small_form.record("a", "b", float(t))
        for t in range(10_000):
            large_form.record("a", "b", float(t))
        small = ModeledCountStore.fit(small_form, LinearModel)
        large = ModeledCountStore.fit(large_form, LinearModel)
        assert small.storage_bytes == large.storage_bytes

    def test_storage_much_smaller_than_exact(self, busy_form):
        store = ModeledCountStore.fit(busy_form, LinearModel)
        exact_bytes = busy_form.total_events * 8
        assert store.storage_bytes < exact_bytes / 5

    def test_storage_profile_per_edge(self, busy_form):
        store = ModeledCountStore.fit(busy_form, LinearModel)
        profile = store.storage_profile()
        assert len(profile) == 2  # edges {a,b} and {c,d}


class TestBufferedEdgeStore:
    def test_exact_while_buffered(self):
        store = BufferedEdgeStore(LinearModel, buffer_size=100)
        for t in range(50):
            store.record("a", "b", float(t))
        assert store.count_entering(("a", "b"), 25.0) == 26

    def test_flush_preserves_totals(self):
        store = BufferedEdgeStore(LinearModel, buffer_size=32)
        for t in range(100):
            store.record("a", "b", float(t))
        # Everything <= latest time is counted across model + buffer.
        assert store.count_entering(("a", "b"), 99.0) == pytest.approx(
            100, abs=2
        )

    def test_recent_window_accurate(self):
        store = BufferedEdgeStore(PiecewiseLinearModel, buffer_size=64)
        rng = np.random.default_rng(1)
        times = np.sort(rng.uniform(0, 1000, 400))
        for t in times:
            store.record("a", "b", float(t))
        probe = times[-30]
        exact = np.searchsorted(times, probe, side="right")
        assert store.count_entering(("a", "b"), probe) == pytest.approx(
            exact, abs=5
        )

    def test_out_of_order_rejected(self):
        store = BufferedEdgeStore(LinearModel)
        store.record("a", "b", 10.0)
        with pytest.raises(ModelError):
            store.record("a", "b", 5.0)

    def test_directions_independent_ordering(self):
        store = BufferedEdgeStore(LinearModel)
        store.record("a", "b", 10.0)
        store.record("b", "a", 5.0)  # different stream: allowed
        assert store.count_entering(("a", "b"), 10.0) == 1
        assert store.count_entering(("b", "a"), 10.0) == 1

    def test_bounded_storage(self):
        store = BufferedEdgeStore(LinearModel, buffer_size=64)
        for t in range(10_000):
            store.record("a", "b", float(t))
        # Model params + at most one buffer of 64 events.
        assert store.storage_bytes <= (64 + 16) * 8

    def test_invalid_buffer_size(self):
        with pytest.raises(ModelError):
            BufferedEdgeStore(LinearModel, buffer_size=0)

    def test_net_between(self):
        store = BufferedEdgeStore(LinearModel, buffer_size=1000)
        for t in range(100):
            store.record("in", "out", float(t))
        assert store.net_between(("in", "out"), 9.0, 19.0) == 10

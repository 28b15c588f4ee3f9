"""Unit tests for the constant-size regression models (§4.8)."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.models import (
    LinearModel,
    PiecewiseLinearModel,
    PolynomialModel,
    StepHistogramModel,
    default_model_factories,
)

ALL_MODELS = [
    LinearModel,
    lambda: PolynomialModel(degree=3),
    lambda: PiecewiseLinearModel(segments=8),
    lambda: StepHistogramModel(bins=16),
]


def uniform_stream(n=500, span=1000.0, seed=0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(0, span, n))


@pytest.mark.parametrize("factory", ALL_MODELS)
class TestModelContract:
    def test_predict_before_fit_raises(self, factory):
        with pytest.raises(ModelError):
            factory().predict(1.0)

    def test_empty_fit_predicts_zero(self, factory):
        model = factory().fit([])
        assert model.predict(123.0) == 0.0

    def test_single_event(self, factory):
        model = factory().fit([5.0])
        assert model.predict(4.0) == 0.0
        assert model.predict(5.0) == 1.0
        assert model.predict(6.0) == 1.0

    def test_clamped_to_bounds(self, factory):
        times = uniform_stream()
        model = factory().fit(times)
        assert model.predict(-100.0) == 0.0
        assert model.predict(times[-1] + 1) == len(times)
        for t in np.linspace(times[0], times[-1], 20):
            assert 0.0 <= model.predict(t) <= len(times)

    def test_reasonable_accuracy_on_uniform_stream(self, factory):
        times = uniform_stream()
        model = factory().fit(times)
        errors = []
        for t in np.linspace(times[0], times[-1], 50):
            exact = np.searchsorted(times, t, side="right")
            errors.append(abs(model.predict(t) - exact))
        # Uniform CDFs are easy; every model should be within 10%.
        assert np.mean(errors) < 0.1 * len(times)

    def test_predict_range(self, factory):
        times = uniform_stream()
        model = factory().fit(times)
        full = model.predict(times[-1] + 1) - model.predict(times[0] - 1)
        assert full == pytest.approx(len(times))

    def test_unsorted_input_handled(self, factory):
        model = factory().fit([3.0, 1.0, 2.0])
        assert model.predict(1.5) >= 0.0
        assert model.predict(3.0) == 3.0

    def test_storage_constant_in_stream_length(self, factory):
        small = factory().fit(uniform_stream(50))
        large = factory().fit(uniform_stream(5000))
        assert small.storage_bytes == large.storage_bytes

    def test_parameter_count_positive(self, factory):
        model = factory().fit(uniform_stream(100))
        assert model.parameter_count >= 1
        assert model.storage_bytes > 0


class TestLinearModel:
    def test_exact_on_linear_cdf(self):
        times = np.arange(1, 101, dtype=float)
        model = LinearModel().fit(times)
        assert model.predict(50.0) == pytest.approx(50.0, abs=1.0)

    def test_duplicate_timestamps(self):
        model = LinearModel().fit([5.0] * 10)
        assert model.predict(5.0) == 10.0
        assert model.predict(4.9) == 0.0


class TestPolynomialModel:
    def test_invalid_degree(self):
        with pytest.raises(ModelError):
            PolynomialModel(degree=0)

    def test_captures_curvature_better_than_linear(self):
        # Quadratic arrival process.
        times = np.sort(np.sqrt(np.linspace(0.01, 1, 400))) * 1000
        linear_err, poly_err = [], []
        linear = LinearModel().fit(times)
        poly = PolynomialModel(degree=3).fit(times)
        for t in np.linspace(times[0], times[-1], 50):
            exact = np.searchsorted(times, t, side="right")
            linear_err.append(abs(linear.predict(t) - exact))
            poly_err.append(abs(poly.predict(t) - exact))
        assert np.mean(poly_err) < np.mean(linear_err)


class TestPiecewiseLinearModel:
    def test_invalid_segments(self):
        with pytest.raises(ModelError):
            PiecewiseLinearModel(segments=0)

    def test_monotone_predictions(self):
        rng = np.random.default_rng(1)
        times = np.sort(rng.exponential(10, size=300).cumsum())
        model = PiecewiseLinearModel(segments=6).fit(times)
        probes = np.linspace(times[0], times[-1], 100)
        values = [model.predict(t) for t in probes]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_more_segments_more_accurate(self):
        rng = np.random.default_rng(2)
        # Bursty stream: hard for coarse models.
        bursts = [rng.uniform(i * 100, i * 100 + 5, 50) for i in range(6)]
        times = np.sort(np.concatenate(bursts))
        errors = {}
        for segments in (2, 16):
            model = PiecewiseLinearModel(segments=segments).fit(times)
            errors[segments] = np.mean(
                [
                    abs(
                        model.predict(t)
                        - np.searchsorted(times, t, side="right")
                    )
                    for t in np.linspace(times[0], times[-1], 200)
                ]
            )
        assert errors[16] < errors[2]


class TestStepHistogramModel:
    def test_invalid_bins(self):
        with pytest.raises(ModelError):
            StepHistogramModel(bins=0)

    def test_counts_monotone(self):
        times = uniform_stream(200)
        model = StepHistogramModel(bins=8).fit(times)
        values = [model.predict(t) for t in np.linspace(0, 1000, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestFactories:
    def test_default_factories_complete(self):
        factories = default_model_factories()
        assert set(factories) == {
            "linear",
            "polynomial",
            "piecewise",
            "histogram",
            "periodic",
        }
        for factory in factories.values():
            model = factory().fit([1.0, 2.0, 3.0])
            assert model.predict(2.0) >= 1.0

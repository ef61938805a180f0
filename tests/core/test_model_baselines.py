"""Tests for the TEVoT model and baseline error models."""

import numpy as np
import pytest

from repro.core import (
    DelayBasedModel,
    TERBasedModel,
    TEVoT,
    make_tevot_nh,
    prediction_accuracy,
)
from repro.core.features import build_feature_matrix
from repro.ml import LinearRegression, RandomForestRegressor
from repro.timing import OperatingCondition
from repro.workloads import random_stream

COND = OperatingCondition(0.85, 25.0)
COND2 = OperatingCondition(0.95, 75.0)


def synthetic_training(n=300, seed=0, include_history=True):
    """Features with a known linear delay structure for fast tests."""
    spec_dim = 130 if include_history else 66
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, (n, spec_dim)).astype(np.float64)
    X[:, -2] = rng.choice([0.81, 0.9, 1.0], n)
    X[:, -1] = rng.choice([0.0, 50.0, 100.0], n)
    y = 100 + 50 * X[:, 0] + 30 * X[:, 1] + 200 * (1.0 - X[:, -2])
    return X, y


class TestTEVoT:
    def test_fit_predict_roundtrip(self):
        X, y = synthetic_training()
        model = TEVoT(regressor=LinearRegression())
        model.fit(X, y)
        pred = model.predict_delay(X)
        assert np.allclose(pred, y, atol=1e-6)

    def test_predict_errors_thresholds_delay(self):
        X, y = synthetic_training()
        model = TEVoT(regressor=LinearRegression()).fit(X, y)
        errors = model.predict_errors(X, clock_period=205.0)
        np.testing.assert_array_equal(errors, (y > 205.0).astype(np.uint8))

    def test_same_model_serves_multiple_clocks(self):
        X, y = synthetic_training()
        model = TEVoT(regressor=LinearRegression()).fit(X, y)
        e_fast = model.predict_errors(X, 150.0)
        e_slow = model.predict_errors(X, 400.0)
        assert e_fast.sum() > e_slow.sum()

    def test_wrong_feature_count_rejected(self):
        model = TEVoT(regressor=LinearRegression())
        with pytest.raises(ValueError):
            model.fit(np.zeros((5, 7)), np.zeros(5))

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            TEVoT().predict_delay(np.zeros((1, 130)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, value):
        X, y = synthetic_training()
        model = TEVoT(regressor=RandomForestRegressor(
            n_estimators=2, random_state=0)).fit(X, y)
        X = X[:3].copy()
        X[1, -2] = value        # the voltage column
        with pytest.raises(ValueError, match="X contains NaN or infinity"):
            model.predict_delay(X)

    def test_invalid_clock_rejected(self):
        X, y = synthetic_training()
        model = TEVoT(regressor=LinearRegression()).fit(X, y)
        with pytest.raises(ValueError):
            model.predict_errors(X, 0.0)

    def test_stream_prediction_shapes(self):
        stream = random_stream(20, seed=1)
        X_rows = build_feature_matrix(stream, COND)
        model = TEVoT(regressor=LinearRegression())
        model.fit(X_rows, np.linspace(100, 200, 20))
        assert model.predict_stream_delays(stream, COND).shape == (20,)
        assert model.predict_stream_errors(stream, COND, 150.0).shape == (20,)
        assert 0.0 <= model.timing_error_rate(stream, COND, 150.0) <= 1.0

    def test_save_load_roundtrip(self, tmp_path):
        X, y = synthetic_training()
        model = TEVoT(regressor=LinearRegression()).fit(X, y)
        path = tmp_path / "tevot.pkl"
        model.save(path)
        loaded = TEVoT.load(path)
        np.testing.assert_allclose(loaded.predict_delay(X[:5]),
                                   model.predict_delay(X[:5]))

    def test_nh_variant_has_no_history(self):
        nh = make_tevot_nh(regressor=LinearRegression())
        assert not nh.include_history
        assert nh.spec.n_features == 66


class TestDelayBased:
    def test_pessimistic_prediction(self):
        conds = [COND, COND2]
        delays = np.array([[100.0, 300.0, 200.0], [80.0, 90.0, 70.0]])
        model = DelayBasedModel().fit(conds, delays)
        assert model.max_delay(COND) == 300.0
        # clock below max -> every cycle flagged
        np.testing.assert_array_equal(
            model.predict_errors(COND, 250.0, 4), [1, 1, 1, 1])
        # clock above max -> no errors
        np.testing.assert_array_equal(
            model.predict_errors(COND, 350.0, 4), [0, 0, 0, 0])

    def test_ter_is_binary(self):
        model = DelayBasedModel().fit([COND], np.array([[100.0, 200.0]]))
        assert model.timing_error_rate(COND, 150.0) == 1.0
        assert model.timing_error_rate(COND, 250.0) == 0.0

    def test_unknown_condition_raises(self):
        model = DelayBasedModel().fit([COND], np.array([[1.0]]))
        with pytest.raises(KeyError):
            model.predict_errors(COND2, 1.0, 1)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DelayBasedModel().predict_errors(COND, 1.0, 1)


class TestTERBased:
    def test_measured_rate_matches_training(self):
        delays = np.array([[100.0, 300.0, 200.0, 250.0]])
        clocks = {COND: [220.0]}
        model = TERBasedModel(seed=0).fit([COND], delays, clocks)
        assert model.timing_error_rate(COND, 220.0) == 0.5

    def test_stochastic_prediction_rate(self):
        delays = np.array([[100.0] * 70 + [300.0] * 30])
        model = TERBasedModel(seed=1).fit([COND], delays, {COND: [200.0]})
        preds = model.predict_errors(COND, 200.0, 20_000)
        assert preds.mean() == pytest.approx(0.3, abs=0.02)

    def test_unknown_clock_raises(self):
        model = TERBasedModel().fit([COND], np.array([[1.0]]), {COND: [2.0]})
        with pytest.raises(KeyError):
            model.timing_error_rate(COND, 99.0)


class TestPredictionAccuracy:
    def test_eq4(self):
        assert prediction_accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            prediction_accuracy([0, 1], [0])
        with pytest.raises(ValueError):
            prediction_accuracy([], [])

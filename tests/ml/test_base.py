"""Tests for estimator plumbing: validation and max_features parsing."""

import numpy as np
import pytest

from repro.ml.base import (
    BaseEstimator,
    NotFittedError,
    check_X,
    check_X_y,
    resolve_max_features,
)


class TestCheckXy:
    def test_valid_conversion(self):
        X, y = check_X_y([[1, 2], [3, 4]], [0, 1])
        assert X.dtype == np.float64
        assert X.shape == (2, 2)

    def test_rejects_1d_X(self):
        with pytest.raises(ValueError):
            check_X_y([1, 2, 3], [1, 2, 3])

    def test_rejects_2d_y(self):
        with pytest.raises(ValueError):
            check_X_y([[1], [2]], [[1], [2]])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            check_X_y([[1], [2]], [1, 2, 3])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_X_y(np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_X(self, value):
        X = np.ones((3, 2))
        X[1, 1] = value
        with pytest.raises(ValueError, match="X contains NaN or infinity"):
            check_X_y(X, np.zeros(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_y(self, value):
        with pytest.raises(ValueError, match="y contains NaN or infinity"):
            check_X_y(np.ones((3, 2)), [0.0, value, 1.0])

    def test_accepts_non_numeric_labels(self):
        _, y = check_X_y(np.ones((2, 1)), ["a", "b"])
        assert list(y) == ["a", "b"]


class TestCheckX:
    def test_feature_count_enforced(self):
        with pytest.raises(ValueError):
            check_X([[1, 2]], n_features=3)

    def test_passes_matching(self):
        X = check_X([[1, 2]], n_features=2)
        assert X.shape == (1, 2)


class TestResolveMaxFeatures:
    @pytest.mark.parametrize("spec,expected", [
        (None, 100), ("all", 100), ("sqrt", 10), ("log2", 6),
        (0.5, 50), (7, 7), (1000, 100),
    ])
    def test_specs(self, spec, expected):
        assert resolve_max_features(spec, 100) == expected

    def test_invalid_float(self):
        with pytest.raises(ValueError):
            resolve_max_features(1.5, 10)

    def test_invalid_int(self):
        with pytest.raises(ValueError):
            resolve_max_features(0, 10)

    def test_invalid_string(self):
        with pytest.raises(ValueError):
            resolve_max_features("banana", 10)


class TestBaseEstimator:
    def test_require_fitted(self):
        est = BaseEstimator()
        with pytest.raises(NotFittedError):
            est._require_fitted()

    def test_get_params_skips_arrays_and_private(self):
        est = BaseEstimator()
        est.alpha = 3
        est._secret = 4
        est.weights = np.zeros(3)
        params = est.get_params()
        assert params == {"alpha": 3}

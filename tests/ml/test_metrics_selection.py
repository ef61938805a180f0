"""Tests for metrics and preprocessing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    MinMaxScaler,
    StandardScaler,
    accuracy_score,
    confusion_matrix,
    mean_absolute_error,
    mean_squared_error,
    precision_recall_f1,
    r2_score,
)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy_score([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75

    def test_accuracy_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy_score([1, 2], [1])

    def test_confusion_matrix(self):
        m = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        np.testing.assert_array_equal(m, [[1, 1], [0, 2]])

    def test_precision_recall_f1(self):
        stats = precision_recall_f1([1, 1, 0, 0], [1, 0, 1, 0])
        assert stats["precision"] == 0.5
        assert stats["recall"] == 0.5
        assert stats["f1"] == 0.5

    def test_prf_degenerate_no_positives(self):
        stats = precision_recall_f1([0, 0], [0, 0])
        assert stats == {"precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_mse_mae(self):
        assert mean_squared_error([0, 2], [0, 0]) == 2.0
        assert mean_absolute_error([0, 2], [0, 0]) == 1.0

    def test_r2_perfect_and_mean(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0
        assert r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_accuracy_bounds(self, labels):
        y = np.array(labels)
        assert 0.0 <= accuracy_score(y, 1 - y) <= 1.0


class TestScalers:
    def test_standard_scaler_roundtrip(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5, 3, size=(50, 4))
        scaler = StandardScaler()
        Z = scaler.fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1, atol=1e-9)
        np.testing.assert_allclose(scaler.inverse_transform(Z), X)

    def test_standard_scaler_constant_column(self):
        X = np.ones((10, 2))
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))

    def test_minmax_scaler_range(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-4, 9, size=(30, 3))
        scaler = MinMaxScaler()
        Z = scaler.fit_transform(X)
        assert Z.min() >= 0.0 and Z.max() <= 1.0
        np.testing.assert_allclose(scaler.inverse_transform(Z), X)

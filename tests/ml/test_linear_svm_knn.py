"""Tests for linear models, SVM, and kNN."""

import numpy as np
import pytest

from repro.ml import (
    KNeighborsClassifier,
    KNeighborsRegressor,
    LinearRegression,
    LinearSVC,
    LogisticRegression,
    NotFittedError,
)
from repro.ml.metrics import accuracy_score, r2_score


def linearly_separable(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X @ np.array([2.0, -1.0, 0.5]) + 0.3 > 0).astype(int)
    return X, y


class TestLinearRegression:
    def test_recovers_exact_linear_function(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 4))
        y = X @ np.array([1.5, -2.0, 0.0, 3.0]) + 7.0
        model = LinearRegression().fit(X, y)
        np.testing.assert_allclose(model.coef_, [1.5, -2.0, 0.0, 3.0],
                                   atol=1e-8)
        assert model.intercept_ == pytest.approx(7.0)
        assert r2_score(y, model.predict(X)) == pytest.approx(1.0)

    def test_no_intercept(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        model = LinearRegression(fit_intercept=False).fit(X, y)
        assert model.intercept_ == 0.0
        assert model.coef_[0] == pytest.approx(2.0)

    def test_not_fitted_raises(self):
        with pytest.raises(NotFittedError):
            LinearRegression().predict([[1.0]])


class TestLogisticRegression:
    def test_separable_data_high_accuracy(self):
        X, y = linearly_separable()
        model = LogisticRegression(n_iter=500).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.95

    def test_predict_proba_in_unit_interval(self):
        X, y = linearly_separable()
        model = LogisticRegression().fit(X, y)
        proba = model.predict_proba(X)
        assert np.all(proba >= 0) and np.all(proba <= 1)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_single_class_degenerates_to_constant(self):
        X = np.zeros((10, 2))
        y = np.ones(10, dtype=int)
        model = LogisticRegression().fit(X, y)
        assert np.all(model.predict(X) == 1)

    def test_multiclass_rejected(self):
        X = np.zeros((3, 1))
        with pytest.raises(ValueError):
            LogisticRegression().fit(X, np.array([0, 1, 2]))

    def test_label_values_preserved(self):
        X, y01 = linearly_separable()
        y = np.where(y01 == 1, 5, -5)
        model = LogisticRegression().fit(X, y)
        assert set(np.unique(model.predict(X))) <= {-5, 5}


class TestLinearSVC:
    def test_separable_data_high_accuracy(self):
        X, y = linearly_separable(seed=1)
        model = LinearSVC(n_epochs=20, random_state=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.93

    def test_decision_function_sign_matches_predictions(self):
        X, y = linearly_separable(seed=2)
        model = LinearSVC(random_state=0).fit(X, y)
        scores = model.decision_function(X)
        preds = model.predict(X)
        assert np.all((scores >= 0) == (preds == model.classes_[1]))

    def test_invalid_C(self):
        with pytest.raises(ValueError):
            LinearSVC(C=0)

    def test_multiclass_rejected(self):
        with pytest.raises(ValueError):
            LinearSVC().fit(np.zeros((3, 1)), np.array([0, 1, 2]))


class TestKNN:
    def test_regressor_interpolates_neighbors(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0]])
        y = np.array([0.0, 1.0, 2.0, 10.0])
        model = KNeighborsRegressor(n_neighbors=2).fit(X, y)
        # nearest neighbours of 0.4 are 0 and 1 -> mean 0.5
        assert model.predict([[0.4]])[0] == pytest.approx(0.5)

    def test_classifier_majority_vote(self):
        X = np.array([[0.0], [0.1], [0.2], [5.0], [5.1]])
        y = np.array([0, 0, 0, 1, 1])
        model = KNeighborsClassifier(n_neighbors=3).fit(X, y)
        assert model.predict([[0.05]])[0] == 0
        assert model.predict([[5.05]])[0] == 1

    def test_k1_memorizes_training_data(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, 50)
        model = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert accuracy_score(y, model.predict(X)) == 1.0

    def test_chunked_prediction_matches_unchunked(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 3))
        y = rng.normal(size=100)
        big = KNeighborsRegressor(5, chunk_size=1000).fit(X, y)
        small = KNeighborsRegressor(5, chunk_size=7).fit(X, y)
        q = rng.normal(size=(30, 3))
        np.testing.assert_allclose(big.predict(q), small.predict(q))

    def test_k_larger_than_train_raises(self):
        with pytest.raises(ValueError):
            KNeighborsRegressor(5).fit(np.zeros((3, 1)), np.zeros(3))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KNeighborsRegressor(0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("model", [LinearRegression(),
                                   KNeighborsRegressor(n_neighbors=2)])
def test_predict_rejects_non_finite(model, value):
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    model.fit(X, np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="X contains NaN or infinity"):
        model.predict([[value, 1.0]])

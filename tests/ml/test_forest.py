"""Tests for random forests."""

import multiprocessing
import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
    forest,
)
from repro.ml.metrics import accuracy_score, r2_score


def make_interaction_data(n=800, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, (n, 10)).astype(float)
    y = 5 * X[:, 0] * X[:, 1] + 2 * X[:, 2] + rng.normal(0, 0.1, n)
    return X, y


class TestRegressorForest:
    def test_generalizes_interactions(self):
        X, y = make_interaction_data()
        model = RandomForestRegressor(n_estimators=10, random_state=0)
        model.fit(X[:600], y[:600])
        assert r2_score(y[600:], model.predict(X[600:])) > 0.95

    def test_reproducible_with_seed(self):
        X, y = make_interaction_data()
        p1 = RandomForestRegressor(5, random_state=42).fit(X, y).predict(X[:20])
        p2 = RandomForestRegressor(5, random_state=42).fit(X, y).predict(X[:20])
        np.testing.assert_array_equal(p1, p2)

    def test_more_trees_reduce_variance(self):
        X, y = make_interaction_data(seed=3)
        single = RandomForestRegressor(1, random_state=0).fit(X[:600], y[:600])
        many = RandomForestRegressor(20, random_state=0).fit(X[:600], y[:600])
        err1 = np.mean((y[600:] - single.predict(X[600:])) ** 2)
        err20 = np.mean((y[600:] - many.predict(X[600:])) ** 2)
        assert err20 <= err1 * 1.2

    def test_feature_importances_identify_signal(self):
        X, y = make_interaction_data()
        model = RandomForestRegressor(10, random_state=0).fit(X, y)
        imp = model.feature_importances()
        assert imp.shape == (10,)
        assert imp.sum() == pytest.approx(1.0)
        assert set(np.argsort(imp)[-3:]) >= {0, 1}

    def test_no_bootstrap_option(self):
        X, y = make_interaction_data()
        model = RandomForestRegressor(3, bootstrap=False, random_state=0)
        model.fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.95

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(0)


class TestClassifierForest:
    def test_classifies_xor(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 2, (600, 2)).astype(float)
        y = (X[:, 0].astype(int) ^ X[:, 1].astype(int))
        model = RandomForestClassifier(10, random_state=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.99

    def test_predict_proba_normalized(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] > 0).astype(int)
        model = RandomForestClassifier(5, random_state=0).fit(X, y)
        proba = model.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_sqrt_max_features(self):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 2, (300, 16)).astype(float)
        y = X[:, 0].astype(int)
        model = RandomForestClassifier(10, max_features="sqrt",
                                       random_state=0).fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.95

    def test_class_labels_preserved(self):
        X = np.array([[0.0], [1.0]] * 50)
        y = np.array([3, 9] * 50)
        model = RandomForestClassifier(5, random_state=0).fit(X, y)
        assert set(model.predict(X)) == {3, 9}


@contextmanager
def deadline(seconds):
    """Fail the block with ``TimeoutError`` after ``seconds`` instead of
    letting a hung fit hang the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def always_fork(monkeypatch):
    """Fit every forest in two processes, whatever its size or the
    host's CPU count."""
    monkeypatch.setattr(forest, "FORK_MIN_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def binary_set(n=50, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, (n, 4)).astype(float)
    return X, X[:, 0] + 2 * X[:, 1] * X[:, 2]


ESTIMATORS = (DecisionTreeRegressor, DecisionTreeClassifier,
              RandomForestRegressor, RandomForestClassifier)

BAD_PARAMS = [
    (cls, name, value)
    for cls in ESTIMATORS
    for name, value in [("min_samples_leaf", 0), ("min_samples_leaf", -3),
                        ("min_samples_leaf", 1.5),
                        ("min_samples_leaf", True),
                        ("min_samples_split", 1),
                        ("min_samples_split", 2.0),
                        ("max_depth", -1), ("max_depth", 2.5)]
] + [(cls, "n_estimators", value)
     for cls in (RandomForestRegressor, RandomForestClassifier)
     for value in (0, -1, 2.5)]


@pytest.mark.parametrize(
    "cls,name,value", BAD_PARAMS,
    ids=[f"{c.__name__}-{n}={v!r}" for c, n, v in BAD_PARAMS])
def test_bad_hyperparameters_raise_at_fit(always_fork, cls, name, value):
    X, y = binary_set()
    model = cls()
    setattr(model, name, value)     # past the constructor
    with deadline(30), pytest.raises(ValueError, match=name):
        model.fit(X, y.astype(int) if "Classifier" in cls.__name__ else y)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cls", ESTIMATORS)
def test_boundary_hyperparameters_fit(cls):
    X, y = binary_set()
    params = dict(max_depth=0, min_samples_leaf=np.int64(1),
                  min_samples_split=2)
    if "Forest" in cls.__name__:
        params["n_estimators"] = np.int64(2)
    model = cls(**params).fit(X, y.astype(int))
    trees = getattr(model, "estimators_", [model])
    assert [tree.n_nodes for tree in trees] == [1] * len(trees)


@pytest.mark.parametrize("where,value", [("X", np.nan), ("X", np.inf),
                                         ("y", np.nan)])
@pytest.mark.parametrize("cls", [DecisionTreeRegressor,
                                 RandomForestRegressor])
def test_non_finite_training_data_rejected(always_fork, cls, where, value):
    X, y = binary_set()
    # in row 1's value of the column y depends on, a NaN hung the fit and
    # an inf made it split off an empty child
    if where == "X":
        X[1, 0] = value
    else:
        y[1] = value
    with deadline(10), pytest.raises(ValueError,
                                     match=f"{where} contains NaN"):
        cls().fit(X, y)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls", ESTIMATORS)
def test_non_finite_prediction_input_rejected(cls, value):
    X, y = binary_set()
    model = cls().fit(X, y.astype(int))
    row = np.array([[value, 0.5, 0.5, 0.5]])
    # a NaN compares false with every threshold and an inf descends as a
    # huge value, so both used to reach some leaf
    with pytest.raises(ValueError, match="X contains NaN or infinity"):
        model.predict(row)
    if "Classifier" in cls.__name__:
        with pytest.raises(ValueError, match="X contains NaN"):
            model.predict_proba(row)


@pytest.mark.parametrize("failure", ["exit", "raise"])
def test_failing_child_raises_in_parent(always_fork, monkeypatch, failure):
    parent = os.getpid()
    fit_rows = DecisionTreeRegressor._fit_rows

    def fail_in_child(self, features, y, rows):
        if os.getpid() != parent:
            if failure == "exit":
                os._exit(7)
            raise ArithmeticError("tree fit failed")
        return fit_rows(self, features, y, rows)

    monkeypatch.setattr(DecisionTreeRegressor, "_fit_rows", fail_in_child)
    X, y = make_interaction_data()
    expected = ((RuntimeError, "exit code 7") if failure == "exit"
                else (ArithmeticError, "tree fit failed"))
    with deadline(60), pytest.raises(expected[0], match=expected[1]):
        RandomForestRegressor(4, random_state=0).fit(X, y)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("forest_cls,tree_cls", [
    (RandomForestRegressor, DecisionTreeRegressor),
    (RandomForestClassifier, DecisionTreeClassifier)])
def test_trees_equal_lone_fits_on_their_draws(monkeypatch, forest_cls,
                                              tree_cls):
    """A forest prepares ``X`` once for all its trees.  Column 1 is 0/1
    except in row 5, so it is a bit column on the draws that miss row 5
    (their bit matrix is gathered from ``X``) and a 3-value column on
    the others (theirs is taken from the shared one).  Each tree equals
    a tree fitted alone on its draw's rows."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    rng = np.random.default_rng(8)
    n = 300
    bits = rng.integers(0, 2, (n, 8)).astype(float)
    bits[5, 0] = 2.0
    v = rng.choice([0.81, 0.9, 1.0], n)
    X = np.column_stack([v, bits])
    y = np.round((bits[:, 0] * 30 + bits[:, 1] * bits[:, 2] * 20)
                 * (1.8 - v) + rng.normal(0, 2, n), 1)
    if tree_cls is DecisionTreeClassifier:
        y = (y > np.median(y)).astype(int)
    draws = []
    fit_rows = tree_cls._fit_rows

    def record(self, features, y, rows):
        draws.append((self.random_state, y, rows))
        return fit_rows(self, features, y, rows)

    monkeypatch.setattr(tree_cls, "_fit_rows", record)
    model = forest_cls(8, random_state=0).fit(X, y)
    monkeypatch.setattr(tree_cls, "_fit_rows", fit_rows)
    assert {bool((rows == 5).any()) for _, _, rows in draws} == {True, False}
    for tree, (seed, y_draw, rows) in zip(model.estimators_, draws):
        lone = tree_cls(random_state=seed).fit(X[rows], y_draw)
        for a, b in zip(tree_arrays(tree), tree_arrays(lone)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def tree_arrays(tree):
    return [tree.feature_, tree.threshold_, tree.left_, tree.right_,
            tree.value_, tree.feature_importances_]


def _fit_predictions(X, y):
    return RandomForestRegressor(4, random_state=0).fit(X, y).predict(X)


def test_fit_in_a_daemonic_process_stays_in_it(always_fork):
    """Pool workers are daemonic and may not have children."""
    X, y = make_interaction_data()
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply(_fit_predictions, (X, y))
    np.testing.assert_array_equal(got, _fit_predictions(X, y))

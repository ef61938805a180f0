"""Golden digests of fitted trees: the ML layer's bit-exact contract.

Every tree array (``feature_``, ``threshold_``, ``left_``, ``right_``,
``value_``) and every ``feature_importances_`` is hashed for fixed-seed
fits of the regressor and the classifier, single trees and forests, at
``min_samples_leaf`` 1 and 4, on two data sets:

* a TEVoT-shaped set: operand bits plus low-cardinality V/T columns,
  delays rounded to 0.1 ps, half of them noise-free (many duplicate
  ``y`` values), and bit columns that are complements of others, so
  their splits are mirror images with mathematically equal gains and
  float rounding breaks the tie;
* a continuous-feature set with a few bit columns mixed in.

The digests in ``GOLDEN`` were recorded with the depth-first fitter that
built one node per call.  Any change to the fitter must reproduce them
exactly.  ``GOLDEN_SQRT`` pins the ``max_features < n_features`` draw,
which is made in breadth-first node order.  Forests reproduce every
digest both when their trees are fitted in forked processes and when
they are fitted in one process.
"""

import hashlib
import multiprocessing
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.model import load_model
from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.ml import forest

DATA = Path(__file__).with_name("data")


def tevot_like(n=600, seed=0):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (n, 40)).astype(float)
    bits[:, 32:] = 1.0 - bits[:, :8]          # mirror-image partitions
    v = rng.choice([0.81, 0.90, 1.00], n)
    t = rng.choice([0.0, 50.0, 100.0], n)
    carries = (bits[:, :8] * bits[:, 8:16]).sum(axis=1)
    noisy = rng.random(n) < 0.5
    delay = ((300 + 40 * carries + 25 * bits[:, 16] * bits[:, 17])
             * (1.8 - v) * (1 + t / 400) + noisy * rng.normal(0, 3, n))
    X = np.column_stack([v, bits, t])
    return X, np.round(delay, 1)


def continuous(n=300, seed=1):
    rng = np.random.default_rng(seed)
    cont = rng.normal(size=(n, 4))
    level = rng.integers(0, 5, n).astype(float)
    bits = rng.integers(0, 2, (n, 2)).astype(float)
    y = (np.sin(2 * cont[:, 0]) + cont[:, 1] * bits[:, 0] + 0.3 * level
         + rng.normal(0, 0.1, n))
    return np.column_stack([cont[:, :2], bits[:, 0], level, cont[:, 2:],
                            bits[:, 1]]), y


DATASETS = {"tevot": tevot_like, "continuous": continuous}


def classes_of(y):
    """Three classes from the target's terciles."""
    return np.digitize(y, np.quantile(y, [1 / 3, 2 / 3]))


ESTIMATORS = {
    "tree_reg": lambda msl: DecisionTreeRegressor(min_samples_leaf=msl),
    "forest_reg": lambda msl: RandomForestRegressor(
        n_estimators=3, min_samples_leaf=msl, random_state=0),
    "tree_clf": lambda msl: DecisionTreeClassifier(min_samples_leaf=msl),
    "forest_clf": lambda msl: RandomForestClassifier(
        n_estimators=3, min_samples_leaf=msl, random_state=0),
}


def fit(data, kind, msl, **params):
    X, y = DATASETS[data]()
    if kind.endswith("clf"):
        y = classes_of(y)
    model = ESTIMATORS[kind](msl)
    for name, value in params.items():
        setattr(model, name, value)
    return model.fit(X, y), X


def digest(model) -> str:
    trees = getattr(model, "estimators_", [model])
    h = hashlib.sha256()
    arrays = [a for tree in trees
              for a in (tree.feature_, tree.threshold_, tree.left_,
                        tree.right_, tree.value_,
                        tree.feature_importances_)]
    if hasattr(model, "estimators_"):
        arrays.append(model.feature_importances())
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:24]


GOLDEN = {
    "continuous/forest_clf/1": "b34018e0a5cae8db44788bc1",
    "continuous/forest_clf/4": "852126d096ec98df091c7a82",
    "continuous/forest_reg/1": "be0cd0c6ec647a835961ac9a",
    "continuous/forest_reg/4": "cdbb27f40d2936b5daedc912",
    "continuous/tree_clf/1": "07a6032bec9d09e6ee36d5e5",
    "continuous/tree_clf/4": "6964d2a02e967921c4bbaeeb",
    "continuous/tree_reg/1": "26449fd1e9244612e9548690",
    "continuous/tree_reg/4": "fdc6cd1e348c014980d2fba1",
    "tevot/forest_clf/1": "302261bbcfd5376dd2f3a9d8",
    "tevot/forest_clf/4": "206ae24ca45b02be1f48e8c9",
    "tevot/forest_reg/1": "b6b522a5913ca2dadf39b599",
    "tevot/forest_reg/4": "bc6ddf7ddb07ce4f544b8fce",
    "tevot/tree_clf/1": "a402afe0442a822549ab9eb0",
    "tevot/tree_clf/4": "bf3d5a4e0dc55b8e4bd4390b",
    "tevot/tree_reg/1": "c2efa4b23e12d44869f8b774",
    "tevot/tree_reg/4": "6ed1e0fab9efc2d6dea7e943",
}

#: digests of ``predict`` (regressors) and ``predict_proba``
#: (classifiers) on the training rows, recorded with the per-tree descent
GOLDEN_PREDICT = {
    "continuous/forest_clf/1": "efc8c58770015c75fad3d002",
    "continuous/forest_clf/4": "f4deab8e338d250c78adb293",
    "continuous/forest_reg/1": "a8708ce1cdbcaa631a062d4e",
    "continuous/forest_reg/4": "9f3fedf54f606320985d8677",
    "continuous/tree_clf/1": "2883bef2567f018535929a5d",
    "continuous/tree_clf/4": "f3dae93d4ba13bfeeb64dd5c",
    "continuous/tree_reg/1": "bafe9174064c1c6cc49511a8",
    "continuous/tree_reg/4": "a77e6be33b039993de45f29b",
    "tevot/forest_clf/1": "d776d5bdc2143405223c2543",
    "tevot/forest_clf/4": "d174853c18fdbe7c6810ebbd",
    "tevot/forest_reg/1": "6e73b5d2dce99bb0e15ae493",
    "tevot/forest_reg/4": "341f3049b112863e82f7e4f5",
    "tevot/tree_clf/1": "9d75ba270b8daeb9e543dd8d",
    "tevot/tree_clf/4": "c1def72314e671cbe7d14e7a",
    "tevot/tree_reg/1": "57e79754cc23561c9926b0a6",
    "tevot/tree_reg/4": "5e8efc12a6ce2db413ba0fbe",
}

#: recorded with the breadth-first fitter: the depth-first one drew each
#: node's candidate features in a different order
GOLDEN_SQRT = {
    "continuous/forest_clf/1": "af6e682478e094e2e7023519",
    "tevot/forest_reg/4": "a47db0266258451521e6bcad",
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_fitted_arrays_match_golden_digest(key):
    data, kind, msl = key.split("/")
    model, _ = fit(data, kind, int(msl))
    assert digest(model) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_SQRT))
def test_max_features_draw_is_pinned(key):
    data, kind, msl = key.split("/")
    model, _ = fit(data, kind, int(msl), max_features="sqrt")
    assert digest(model) == GOLDEN_SQRT[key]


def predictions(model, X):
    return (model.predict_proba(X) if hasattr(model, "predict_proba")
            else model.predict(X))


def output_digest(out) -> str:
    return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()[:24]


@pytest.mark.parametrize("key", sorted(GOLDEN_PREDICT))
def test_predictions_match_golden_digest(key):
    data, kind, msl = key.split("/")
    model, X = fit(data, kind, int(msl))
    assert output_digest(predictions(model, X)) == GOLDEN_PREDICT[key]


#: ``os.sched_getaffinity`` results that force each forest fit path at
#: any data size: the three-tree forests fit in two processes (strides of
#: two trees and one), in three, or in one
FIT_PATHS = {"forked2": {0, 1}, "forked3": {0, 1, 2}, "one_cpu": {0}}


@pytest.mark.parametrize("path", sorted(FIT_PATHS))
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_fit_paths_match_golden_digests(monkeypatch, path, key):
    monkeypatch.setattr(forest, "FORK_MIN_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: FIT_PATHS[path])
    assert forest._n_procs(3, 1) == len(FIT_PATHS[path])
    data, kind, msl = key.split("/")
    model, X = fit(data, kind, int(msl))
    assert multiprocessing.active_children() == []
    assert digest(model) == GOLDEN[key]
    assert output_digest(predictions(model, X)) == GOLDEN_PREDICT[key]
    if key in GOLDEN_SQRT:
        model, _ = fit(data, kind, int(msl), max_features="sqrt")
        assert multiprocessing.active_children() == []
        assert digest(model) == GOLDEN_SQRT[key]


@pytest.mark.parametrize("kind", ["forest_reg", "forest_clf"])
def test_predictions_do_not_depend_on_batch(kind):
    model, X = fit("tevot", kind, 4)
    whole = predictions(model, X)
    for size in (1, 64):
        parts = [predictions(model, X[i:i + size])
                 for i in range(0, len(X), size)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("key", ["continuous/forest_clf/1",
                                 "tevot/forest_reg/4"])
def test_artifacts_with_fit_state_load_and_predict_identically(key):
    """``data/`` holds artifacts saved by the node-at-a-time fitter,
    whose trees kept their fit-time state (``_tree``, ``_rng``,
    ``_binary_cols``)."""
    legacy, metadata = load_model(DATA / (key.replace("/", "-") + ".pkl"))
    data, kind, msl = key.split("/")
    fresh, X = fit(data, kind, int(msl))
    assert metadata["note"] == "pickled by the depth-first fitter"
    assert digest(legacy) == digest(fresh) == GOLDEN[key]
    out = predictions(legacy, X)
    np.testing.assert_array_equal(out, predictions(fresh, X))
    assert output_digest(out) == GOLDEN_PREDICT[key]
    for tree in legacy.estimators_:
        assert not {"_tree", "_rng", "_binary_cols"} & set(vars(tree))


def test_pickles_hold_only_the_fitted_arrays():
    model, X = fit("tevot", "forest_reg", 4)
    for est in [model] + model.estimators_:
        predictions(est, X)                # builds the node tables
    clone = pickle.loads(pickle.dumps(model))
    for est in [clone] + clone.estimators_:
        assert not [k for k in vars(est) if k.startswith("_")
                    and k != "_fitted"]
    np.testing.assert_array_equal(predictions(clone, X),
                                  predictions(model, X))

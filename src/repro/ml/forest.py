"""Random forests (bagging over CART trees).

The paper trains TEVoT with scikit-learn's random forest at default
hyperparameters — 10 trees, all features considered at each split —
which these classes mirror.  Feature importances (mean decrease in
impurity across trees) support the paper's interpretability claim.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import check_X, check_X_y
from .tree import DecisionTreeClassifier, DecisionTreeRegressor, _Stacked


class _BaseForest(_Stacked):
    tree_class = None

    def __init__(self, n_estimators: int = 10,
                 max_depth: Optional[int] = None,
                 min_samples_split: int = 2,
                 min_samples_leaf: int = 1,
                 max_features=None,
                 bootstrap: bool = True,
                 random_state: Optional[int] = None) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def _make_tree(self, seed: int):
        return self.tree_class(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
        )

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        self.n_features_ = X.shape[1]
        self.__dict__.pop("_node_table", None)
        rng = np.random.default_rng(self.random_state)
        self.estimators_ = []
        n = X.shape[0]
        for _ in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            tree = self._make_tree(seed)
            # trees index the bootstrap draw instead of copying its rows
            idx = rng.integers(0, n, n) if self.bootstrap else np.arange(n)
            self.estimators_.append(tree._fit_rows(X, y[idx], idx))
        self._fitted = True
        return self

    def feature_importances(self) -> np.ndarray:
        """Mean-decrease-in-impurity importances averaged over trees —
        the interpretability hook the paper credits the forest with
        (which bit positions drive path sensitization)."""
        self._require_fitted()
        importances = np.zeros(self.n_features_)
        for tree in self.estimators_:
            importances += tree.feature_importances_
        total = importances.sum()
        return importances / total if total else importances

    def _mean_over_trees(self, X) -> np.ndarray:
        """Mean of the trees' leaf values, accumulated tree by tree.

        Not ``np.mean(axis=1)``: numpy picks pairwise vs sequential
        summation by memory layout, so the mean of a 1-row batch could
        differ in the last ulp from the same row inside a larger batch.
        Sequential accumulation makes predictions independent of batch
        composition — the serving layer relies on that for bit-exact
        parity.
        """
        table = self._table()
        per_tree = table.value[table.leaves(check_X(X, self.n_features_))]
        total = per_tree[:, 0].copy()
        for t in range(1, per_tree.shape[1]):
            total += per_tree[:, t]
        return total / per_tree.shape[1]


class RandomForestRegressor(_BaseForest):
    """Mean-aggregated forest of CART regressors — TEVoT's delay model."""

    tree_class = DecisionTreeRegressor

    def _stack(self):
        return self.estimators_, np.concatenate(
            [tree.value_[:, 0] for tree in self.estimators_])

    def predict(self, X) -> np.ndarray:
        return self._mean_over_trees(X)


class RandomForestClassifier(_BaseForest):
    """Majority-vote forest of CART classifiers (paper's "RFC")."""

    tree_class = DecisionTreeClassifier

    def fit(self, X, y):
        super().fit(X, y)
        self.classes_ = self.estimators_[0].classes_
        # trees may have seen different class subsets under bootstrap;
        # align on the union
        all_classes = np.unique(np.concatenate(
            [t.classes_ for t in self.estimators_]))
        self.classes_ = all_classes
        return self

    def _stack(self):
        # each tree's class columns placed among the forest's classes
        value = []
        for tree in self.estimators_:
            proba = np.zeros((tree.n_nodes, len(self.classes_)))
            proba[:, np.searchsorted(self.classes_, tree.classes_)] = \
                tree.value_
            value.append(proba)
        return self.estimators_, np.concatenate(value)

    def predict_proba(self, X) -> np.ndarray:
        return self._mean_over_trees(X)

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

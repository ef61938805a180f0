"""Random forests (bagging over CART trees).

The paper trains TEVoT with scikit-learn's random forest at default
hyperparameters — 10 trees, all features considered at each split —
which these classes mirror.  Feature importances (mean decrease in
impurity across trees) support the paper's interpretability claim.

``fit`` draws every tree's seed and bootstrap rows in the parent, in
tree order, before any tree is fitted, and prepares ``X`` once for all
trees (``tree._Features``: the 0/1 column test, a ``uint8`` matrix of
the bit columns, the value ranks of the other columns).  It then fits
the trees in ``k = min(n_estimators, usable CPUs)`` processes: ``k - 1``
children forked from the parent fit trees ``i, i + k, ...`` and send
them back over a pipe, while the parent fits stride 0; ``X``, ``y`` and
the prepared arrays reach the children copy-on-write.  A tree depends
only on its own draw and the data, and each process runs the same
``_fit_rows`` as the sequential loop, so the fitted forest is
bit-identical to a sequential fit.  The fit stays in one process on one
CPU, where ``fork`` or ``os.sched_getaffinity`` is unavailable, in a
daemonic process (which may not have children), and when
``n_samples * n_estimators`` is below :data:`FORK_MIN_WORK`, where the
fork costs more than it saves.  A child that raises re-raises its
exception in the parent; one that dies raises ``RuntimeError``; every
child is reaped before ``fit`` returns or raises.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import traceback
from typing import Callable, List, Optional

import numpy as np

from .base import check_int, check_X, check_X_y
from .tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    _Features,
    _Stacked,
    check_tree_params,
)

#: rows x trees below which a forest fits in one process (the fork,
#: pickling the trees and copy-on-write faults outweigh the parallel fit)
FORK_MIN_WORK = 1000


def _n_procs(n_trees: int, n_rows: int) -> int:
    """How many processes fit a forest of ``n_trees`` on ``n_rows``."""
    if (n_rows * n_trees < FORK_MIN_WORK
            or not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return min(n_trees, len(os.sched_getaffinity(0)))


def _send_result(task: Callable, i: int, conn) -> None:
    """Forked child: send ``(True, task(i))``, or ``(False, exception)``."""
    try:
        result = (True, task(i))
    except BaseException as exc:
        exc.add_note("raised in a forked forest-fit process:\n"
                     + traceback.format_exc())
        result = (False, exc)
    conn.send(result)


def _fork_map(task: Callable, k: int) -> List:
    """``[task(0), ..., task(k - 1)]``: ``task(0)`` in this process, the
    rest in forked children that are all reaped before this returns."""
    if k == 1:
        return [task(0)]
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for i in range(1, k):
            recv, send = ctx.Pipe(duplex=False)
            conns.append(recv)
            proc = ctx.Process(target=_send_result, args=(task, i, send),
                               name=f"repro-forest-{i}", daemon=True)
            proc.start()
            procs.append(proc)
            send.close()   # EOF on ``recv`` once the child is gone
        results = [task(0)]
        for proc, recv in zip(procs, conns):
            try:
                ok, value = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"forest-fit process {proc.name} died with exit code "
                    f"{proc.exitcode}") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for proc in procs:
            proc.kill()    # SIGKILL: no-op for a child that already exited
            proc.join()
        for recv in conns:
            recv.close()


class _BaseForest(_Stacked):
    tree_class = None

    def __init__(self, n_estimators: int = 10,
                 max_depth: Optional[int] = None,
                 min_samples_split: int = 2,
                 min_samples_leaf: int = 1,
                 max_features=None,
                 bootstrap: bool = True,
                 random_state: Optional[int] = None) -> None:
        check_int("n_estimators", n_estimators, 1)
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
        check_int("n_estimators", self.n_estimators, 1)
        check_tree_params(self)
        self.n_features_ = X.shape[1]
        self.__dict__.pop("_node_table", None)
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        draws = []
        for _ in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            # trees index the bootstrap draw instead of copying its rows
            idx = rng.integers(0, n, n) if self.bootstrap else np.arange(n)
            draws.append((seed, idx))
        k = _n_procs(self.n_estimators, n)
        features = _Features(X)

        def fit_stride(i):
            return [self._make_tree(seed)._fit_rows(features, y[idx], idx)
                    for seed, idx in draws[i::k]]

        self.estimators_ = [None] * self.n_estimators
        for i, trees in enumerate(_fork_map(fit_stride, k)):
            self.estimators_[i::k] = trees
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

        A batch the table walks (:meth:`_NodeTable.leaves`) with one
        value per node (the regressor) takes :meth:`_walk_means`.
        """
        table = self._table()
        X = check_X(X, self.n_features_)
        if (table.value_view is not None
                and X.shape[0] <= table.walk_max_rows):
            return np.array(self._walk_means(table, X.tolist()))
        per_tree = table.value[table.leaves(X)]
        total = per_tree[:, 0].copy()
        for t in range(1, per_tree.shape[1]):
            total += per_tree[:, t]
        return total / per_tree.shape[1]

    @staticmethod
    def _walk_means(table, rows: list) -> list:
        """Mean leaf value of each row, walked and summed in Python
        floats: tree 0's value, plus trees 1..T-1 in order, divided by
        T.  Those are the float64 additions and division, in the same
        order, that :meth:`_mean_over_trees` makes on whole columns, so
        both give the same bits."""
        value = table.value_view
        means = []
        for leaves in table.walk(rows):
            total = value[leaves[0]]
            for leaf in leaves[1:]:
                total += value[leaf]
            means.append(total / len(leaves))
        return means


class RandomForestRegressor(_BaseForest):
    """Mean-aggregated forest of CART regressors — TEVoT's delay model."""

    tree_class = DecisionTreeRegressor

    def _stack(self):
        return self.estimators_, np.concatenate(
            [tree.value_[:, 0] for tree in self.estimators_])

    def predict(self, X) -> np.ndarray:
        return self._mean_over_trees(X)

    @property
    def walk_max_rows(self) -> int:
        """Largest batch :meth:`predict` walks row by row in Python
        instead of descending it in numpy rounds."""
        return self._table().walk_max_rows

    def predict_rows(self, rows: list) -> np.ndarray:
        """:meth:`predict` for a list of feature rows of Python floats.

        A batch of at most :attr:`walk_max_rows` rows, each of
        ``n_features_`` finite values, is walked as given, without
        building an array; any other batch goes through :meth:`predict`,
        which also reports a malformed row.
        """
        table = self._table()
        n = self.n_features_
        if (0 < len(rows) <= table.walk_max_rows
                and all(len(row) == n for row in rows)
                # a NaN or an infinity anywhere makes the sum non-finite
                and math.isfinite(sum(map(sum, rows)))):
            return np.array(self._walk_means(table, rows))
        return self.predict(rows)


class RandomForestClassifier(_BaseForest):
    """Majority-vote forest of CART classifiers (paper's "RFC")."""

    tree_class = DecisionTreeClassifier

    def fit(self, X, y):
        super().fit(X, y)
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

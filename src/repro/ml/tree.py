"""CART decision trees (numpy-vectorized), fitted breadth-first.

Supports the feature structure TEVoT produces — mostly binary bit
features plus a few low-cardinality numeric features (V, T) — by
scanning all split positions of each sorted feature column with prefix
sums (exact CART).  Split gain is variance reduction (regression) or
Gini impurity decrease (classification).  All open nodes of one depth
are scored together from one level-sorted matrix of their bit rows;
only the float reductions whose rounding breaks near-ties run per node,
on that node's contiguous slice, so the trees are bit-identical to ones
built a node at a time.  Prediction descends a stacked node table.
"""

from __future__ import annotations

import types
from typing import Optional

import numpy as np

from .base import (
    BaseEstimator,
    check_int,
    check_X,
    check_X_y,
    resolve_max_features,
)

_LEAF = -1


def __getattr__(name):
    # artifacts pickled by the node-at-a-time fitter keep its fit-time state,
    # including this class; ``_Stacked.__setstate__`` drops that state
    if name == "_TreeArrays":
        return types.SimpleNamespace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def check_tree_params(est) -> None:
    """Reject the stopping rules the fitter would loop forever on
    (``min_samples_leaf < 1``) or silently misread (``max_depth < 0``)."""
    check_int("min_samples_leaf", est.min_samples_leaf, 1)
    check_int("min_samples_split", est.min_samples_split, 2)
    if est.max_depth is not None:
        check_int("max_depth", est.max_depth, 0)


class _NodeTable:
    """Trees stacked into one node table and descended together.

    Tree ``t`` owns rows ``offsets[t]:offsets[t + 1]``; a leaf's two
    children point back to the leaf, so a row that reached its leaf in a
    shallow tree stays there while deeper trees finish.  ``value`` holds
    one row per stacked node.
    """

    def __init__(self, trees, value: np.ndarray) -> None:
        sizes = [len(t.feature_) for t in trees]
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        feature = np.concatenate([t.feature_ for t in trees])
        leaf = feature == _LEAF
        own = np.arange(len(feature))
        shift = np.repeat(self.offsets[:-1], sizes)
        # children[2 * node + go_left]
        self.children = np.stack([
            np.where(leaf, own, np.concatenate([t.right_ for t in trees])
                     + shift),
            np.where(leaf, own, np.concatenate([t.left_ for t in trees])
                     + shift)], axis=1).ravel()
        self.feature = np.where(leaf, 0, feature)
        self.threshold = np.concatenate([t.threshold_ for t in trees])
        self.value = value
        self.rounds = max(t.depth() for t in trees)

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """Stacked leaf id of every (row, tree)."""
        node = np.tile(self.offsets[:-1], (X.shape[0], 1))
        rows = np.arange(X.shape[0])[:, None]
        for _ in range(self.rounds):
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = self.children[2 * node + go_left]
        return node


class _Stacked(BaseEstimator):
    """Predicts through a node table built on first use and never
    pickled."""

    def _stack(self):
        """``(trees, per-node values)`` the table stacks."""
        raise NotImplementedError

    def _table(self) -> _NodeTable:
        self._require_fitted()
        table = self.__dict__.get("_node_table")
        if table is None:
            table = self._node_table = _NodeTable(*self._stack())
        return table

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_node_table", None)
        return state

    def __setstate__(self, state) -> None:
        for name in ("_tree", "_rng", "_binary_cols",
                     "max_threshold_candidates"):
            state.pop(name, None)
        self.__dict__.update(state)


class _BaseDecisionTree(_Stacked):
    """Shared CART machinery; subclasses define leaf values and impurity."""

    def __init__(self, max_depth: Optional[int] = None,
                 min_samples_split: int = 2,
                 min_samples_leaf: int = 1,
                 max_features=None,
                 random_state: Optional[int] = None) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    # subclass hooks ------------------------------------------------------

    def _level_values(self, ys, starts, counts):
        """``(leaf values, pure)`` of every open node of a level."""
        raise NotImplementedError

    def _binary_gains(self, xs, ys, starts, counts):
        """``(gains, n_right)`` of every 0/1 column (threshold 0.5) for
        the nodes whose rows are ``xs[s:s + n]`` for ``s, n`` in
        ``starts, counts``; ``n_right`` counts each node's ones."""
        raise NotImplementedError

    def _prefix_gains(self, y_s: np.ndarray, positions: np.ndarray):
        """Gains of splitting sorted targets ``y_s`` after each of
        ``positions``, from prefix sums."""
        raise NotImplementedError

    # fitting ---------------------------------------------------------------

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        check_tree_params(self)
        return self._fit_rows(X, y, np.arange(len(y)))

    def _prepare_targets(self, y: np.ndarray) -> np.ndarray:
        return y.astype(np.float64)

    def _fit_rows(self, X: np.ndarray, y: np.ndarray, rows: np.ndarray):
        """Fit on ``X[rows], y`` without copying those rows of ``X``.

        With ``max_features`` below the feature count, each splittable
        node draws its candidate features from the tree's generator in
        breadth-first order (level by level, left to right), and ties
        between candidates go to the lowest feature index.
        """
        y = self._prepare_targets(y)
        n_feat = self.n_features_ = X.shape[1]
        self.__dict__.pop("_node_table", None)
        rng = np.random.default_rng(self.random_state)
        n_draw = resolve_max_features(self.max_features, n_feat)
        binary = ~((X != 0.0) & (X != 1.0))[rows].any(axis=0)
        bits, others = np.flatnonzero(binary), np.flatnonzero(~binary)
        msl = self.min_samples_leaf
        # level state: X rows, targets and bit rows grouped by open node
        idx, ys = rows, y
        xs = X[np.ix_(rows, bits)]
        spare = np.empty_like(xs)
        starts, counts = np.zeros(1, np.int64), np.array([len(y)])
        levels, n_seen, depth = [], 0, 0
        while True:
            n_open, m = len(counts), len(ys)
            value, pure = self._level_values(ys, starts, counts)
            live = ~pure & (counts >= self.min_samples_split)
            if self.max_depth is not None and depth >= self.max_depth:
                live[:] = False
            allowed = np.ones((n_open, n_feat), bool)
            if n_draw < n_feat:
                allowed[live] = False
                for k in np.flatnonzero(live):
                    allowed[k, rng.choice(n_feat, n_draw, replace=False)] = 1
            gain, thr = np.full(n_open, 1e-12), np.zeros(n_open)
            feat = np.full(n_open, _LEAF)
            cand = np.flatnonzero(live)
            if len(bits) and len(cand):
                g, n_right = self._binary_gains(xs, ys, starts[cand],
                                                counts[cand])
                g[(n_right < msl) | (counts[cand, None] - n_right < msl)
                  | ~allowed[cand][:, bits] | np.isnan(g)] = -np.inf
                best = g.argmax(axis=1)
                g = g[np.arange(len(cand)), best]
                win = g > gain[cand]
                gain[cand[win]] = g[win]
                feat[cand[win]] = bits[best[win]]
                thr[cand[win]] = 0.5
            row_node = np.repeat(np.arange(n_open), counts)
            for f in others:
                col = X[idx, f]
                varies = live & allowed[:, f] & ~(
                    np.minimum.reduceat(col, starts)
                    == np.maximum.reduceat(col, starts))
                if not varies.any():
                    continue
                order = np.lexsort((col, row_node))
                col_s, y_s = col[order], ys[order]
                for k in np.flatnonzero(varies):
                    s = slice(starts[k], starts[k] + counts[k])
                    g, t = self._best_split(col_s[s], y_s[s])
                    if g > gain[k]:
                        gain[k], feat[k], thr[k] = g, f, t
            split = feat >= 0
            n_split = int(split.sum())
            left = np.full(n_open, _LEAF)
            left[split] = n_seen + n_open + 2 * np.arange(n_split)
            levels.append((feat, thr, left, value, counts * gain))
            n_seen += n_open
            depth += 1
            if not n_split:
                break
            # child partition: one stable sort of the kept rows on child id
            keep = np.flatnonzero(split[row_node])
            node = row_node[keep]
            child = 2 * (np.cumsum(split) - 1)[node] + ~(
                X[idx[keep], feat[node]] <= thr[node])
            perm = keep[np.argsort(child, kind="stable")]
            np.take(xs[:m], perm, axis=0, out=spare[:len(perm)], mode="clip")
            xs, spare = spare, xs
            idx, ys = idx[perm], ys[perm]
            counts = np.bincount(child, minlength=2 * n_split)
            starts = np.cumsum(counts) - counts
        self._renumber(*map(np.concatenate, zip(*levels)))
        self._fitted = True
        return self

    def _renumber(self, feat, thr, left, value, contrib) -> None:
        """Store the breadth-first tree under depth-first ids: popping
        the right child first and allocating children in pairs.  The
        importances accumulate in that visit order."""
        new_id = np.zeros(len(feat), np.int64)
        visit, stack, next_id = [], [0], 1
        left_l = left.tolist()
        while stack:
            node = stack.pop()
            child = left_l[node]
            if child != _LEAF:
                visit.append(node)
                new_id[child], new_id[child + 1] = next_id, next_id + 1
                next_id += 2
                stack += (child, child + 1)
        order = np.argsort(new_id)
        left = left[order]
        self.feature_, self.threshold_ = feat[order], thr[order]
        self.left_ = np.where(left != _LEAF, new_id[left], _LEAF)
        self.right_ = np.where(left != _LEAF, new_id[left + 1], _LEAF)
        self.value_ = value[order]
        self.feature_importances_ = np.zeros(self.n_features_)
        np.add.at(self.feature_importances_, feat[visit], contrib[visit])
        total = self.feature_importances_.sum()
        if total > 0:
            self.feature_importances_ /= total

    def _best_split(self, col_s: np.ndarray, y_s: np.ndarray):
        """Best ``(gain, threshold)`` for one node's stably sorted column
        ``col_s`` and the targets in that order.

        Position ``i`` means the left child takes sorted elements
        ``0..i``; a position is valid when the column value actually
        changes there and both children meet ``min_samples_leaf``.
        """
        msl = self.min_samples_leaf
        positions = np.nonzero(col_s[:-1] != col_s[1:])[0]
        positions = positions[(positions + 1 >= msl)
                              & (len(col_s) - positions - 1 >= msl)]
        if len(positions) == 0:
            return 0.0, 0.0
        gains = self._prefix_gains(y_s, positions)
        best = int(np.argmax(gains))
        pos = positions[best]
        return float(gains[best]), float((col_s[pos] + col_s[pos + 1]) / 2.0)

    # prediction ---------------------------------------------------------------

    def _stack(self):
        return [self], self.value_

    def _decision_leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf node index for each sample."""
        return self._table().leaves(X)[:, 0]

    @property
    def n_nodes(self) -> int:
        self._require_fitted()
        return len(self.feature_)

    def depth(self) -> int:
        """Maximum depth of the fitted tree."""
        self._require_fitted()
        level, depth = np.zeros(1, np.int64), 0
        while True:
            level = level[self.feature_[level] != _LEAF]
            if not len(level):
                return depth
            level = np.concatenate((self.left_[level], self.right_[level]))
            depth += 1


def _sse_gains(n, total1, total2, left, right) -> np.ndarray:
    """Variance reduction of splitting ``n`` targets (sum ``total1``,
    sum of squares ``total2``) into ``left`` and ``right``, each given
    as (count, sum, sum of squares)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = [s2 - s1 * s1 / m for m, s1, s2 in (left, right)]
    return (total2 - total1 * total1 / n - sse[0] - sse[1]) / n


def _gini_gains(left, right, n) -> np.ndarray:
    """Gini decrease of splitting ``n`` samples into children with the
    class counts (last axis) ``left`` and ``right``."""
    def gini(counts, total):
        return 1.0 - np.sum((counts / total[..., None]) ** 2, axis=-1)

    n_left, n_right = left.sum(axis=-1), right.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return gini(left + right, n) - (n_left * gini(left, n_left)
                                        + n_right * gini(right, n_right)) / n


class DecisionTreeRegressor(_BaseDecisionTree):
    """CART regressor: leaves predict the mean target; splits maximize
    variance reduction.  TEVoT's delay model ``fd`` builds forests of
    these."""

    def _level_values(self, ys, starts, counts):
        sums = np.array([ys[s:s + n].sum()
                         for s, n in zip(starts.tolist(), counts.tolist())])
        pure = (np.minimum.reduceat(ys, starts)
                == np.maximum.reduceat(ys, starts))
        return (sums / counts)[:, None], pure

    def _binary_gains(self, xs, ys, starts, counts):
        yy = ys * ys
        s1_right, s2_right, n_right = np.empty((3, len(starts), xs.shape[1]))
        total1, total2 = np.empty((2, len(starts), 1))
        for k, (s, n) in enumerate(zip(starts.tolist(), counts.tolist())):
            xk, yk = xs[s:s + n], ys[s:s + n]
            np.matmul(xk.T, yk, out=s1_right[k])
            np.matmul(xk.T, yy[s:s + n], out=s2_right[k])
            xk.sum(axis=0, out=n_right[k])
            total1[k], total2[k] = yk.sum(), yk @ yk
        n = counts[:, None]
        left = (n - n_right, total1 - s1_right, total2 - s2_right)
        return _sse_gains(n, total1, total2, left,
                          (n_right, s1_right, s2_right)), n_right

    def _prefix_gains(self, y_s, positions):
        cum1, cum2 = np.cumsum(y_s), np.cumsum(y_s * y_s)
        total1, total2 = cum1[-1], cum2[-1]
        n_left = positions + 1.0
        s1l, s2l = cum1[positions], cum2[positions]
        return _sse_gains(len(y_s), total1, total2, (n_left, s1l, s2l),
                          (len(y_s) - n_left, total1 - s1l, total2 - s2l))

    def predict(self, X) -> np.ndarray:
        X = check_X(X, getattr(self, "n_features_", None))
        leaves = self._decision_leaves(X)
        return self.value_[leaves, 0]


class DecisionTreeClassifier(_BaseDecisionTree):
    """CART classifier: Gini splits, majority-vote leaves."""

    def _prepare_targets(self, y: np.ndarray) -> np.ndarray:
        self.classes_, encoded = np.unique(y, return_inverse=True)
        return encoded.astype(np.int64)

    def _onehot(self, y: np.ndarray) -> np.ndarray:
        onehot = np.zeros((len(y), len(self.classes_)))
        onehot[np.arange(len(y)), y] = 1.0
        return onehot

    def _level_values(self, ys, starts, counts):
        k = len(self.classes_)
        node = np.repeat(np.arange(len(counts)), counts)
        per_class = np.bincount(node * k + ys, minlength=len(counts) * k
                                ).reshape(len(counts), k)
        pure = np.count_nonzero(per_class, axis=1) == 1
        return per_class / per_class.sum(axis=1, keepdims=True), pure

    def _binary_gains(self, xs, ys, starts, counts):
        # class counts are integers, exact in any summation order
        onehot = self._onehot(ys)
        slices = [slice(s, s + n)
                  for s, n in zip(starts.tolist(), counts.tolist())]
        right = np.stack([xs[s].T @ onehot[s] for s in slices])
        totals = np.stack([onehot[s].sum(axis=0) for s in slices])[:, None]
        return (_gini_gains(totals - right, right, counts[:, None]),
                right.sum(axis=2))

    def _prefix_gains(self, y_s, positions):
        cum = np.cumsum(self._onehot(y_s), axis=0)
        left = cum[positions]
        return _gini_gains(left, cum[-1] - left, np.float64(len(y_s)))

    def predict_proba(self, X) -> np.ndarray:
        X = check_X(X, getattr(self, "n_features_", None))
        leaves = self._decision_leaves(X)
        return self.value_[leaves]

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

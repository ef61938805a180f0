"""CART decision trees (numpy-vectorized), fitted breadth-first.

Supports the feature structure TEVoT produces — mostly binary bit
features plus a few low-cardinality numeric features (V, T) — by
scanning all split positions of each sorted feature column with prefix
sums (exact CART).  Split gain is variance reduction (regression) or
Gini impurity decrease (classification).  All open nodes of one depth
are scored together:

* bit columns from one level-sorted ``uint8`` matrix of the nodes' bit
  rows, so building it and partitioning it into the next level move one
  byte per cell.  ``_Features`` tests the columns for 0/1 values and
  casts the bit columns to ``uint8`` once per forest; each tree takes
  its bootstrap rows of that matrix.  Only nodes of at least
  ``2 * min_samples_leaf`` rows are scored (a smaller one has no bit
  split with both children at ``min_samples_leaf``).  The sums whose
  rounding depends on how BLAS and numpy order them (``xs.T @ y``,
  ``xs.T @ (y * y)``, ``y @ y`` and the node's ``y.sum()``) run once
  per group of nodes with the same row count: the group's rows are
  cast into one reused float64 ``(nodes, rows, bits)`` block, and one
  stacked ``matmul`` (or a row ``sum``) makes, for each node, the call
  a per-node reduction makes, with the same shape and strides;
* every other column (V, T) by one prefix scan per level: one stable
  sort of each row's (node, value rank) key, a radix sort when the key
  fits 16 bits, orders every node's rows by value; each node's sorted
  slice fills one zero-padded row of a matrix (nodes grouped by
  power-of-two row width, so padding at most doubles the cells) and
  ``cumsum`` along the rows adds in exactly the order a per-node 1-D
  ``cumsum`` does.

So the trees are bit-identical to ones built a node at a time.
Prediction descends a stacked node table: small batches one (row, tree)
pair at a time in Python, larger ones in rounds of numpy indexing.
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

#: A table walks batches of at most ``rounds * _WALK_STEPS_PER_ROUND /
#: (n_trees * (mean_leaf_depth + 1) + _WALK_STEPS_PER_ROW)`` rows in
#: Python (see :meth:`_NodeTable.leaves`): one numpy round costs about
#: as much as 32 walk steps, and a row's own set-up about 6.  Fitted to
#: both descents timed on 1-32 rows of six tables (single trees, 3- and
#: 10-tree forests, depths 8-15) on 2 vCPUs; the rule lands at or below
#: each table's measured crossover (4 rows on the ``serve_seq`` forest).
_WALK_STEPS_PER_ROUND = 32
_WALK_STEPS_PER_ROW = 6


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


class _Features:
    """A training matrix ``X`` prepared once for every tree fitted on
    rows of it: ``bits`` are the columns that are 0/1 on every row and
    ``bit_matrix`` holds their values as ``uint8``; ``others`` are the
    rest, and ``rank[f]`` is each row's rank among the distinct values
    of column ``f`` in ``others``.  A forest prepares ``X`` before it
    forks, so its children share these arrays copy-on-write.
    """

    def __init__(self, X: np.ndarray) -> None:
        self.X = X
        one = X == 1.0
        binary = (one | (X == 0.0)).all(axis=0)
        self.bits = np.flatnonzero(binary)
        self.others = np.flatnonzero(~binary)
        # a bit column's True is its 1 (and -0.0 is 0)
        self.bit_matrix = one[:, self.bits].view(np.uint8)
        self.rank = {f: np.unique(X[:, f], return_inverse=True)[1]
                     for f in self.others.tolist()}

    def bit_rows(self, rows: np.ndarray):
        """``(bits, others, xs)`` of a tree fitted on ``X[rows]``: the
        columns that are 0/1 on those rows, the other columns, and the
        rows' bit columns as a ``uint8`` matrix.  A column of ``others``
        that is 0/1 on ``rows`` joins the tree's bits; only then is the
        matrix gathered from ``X``."""
        X = self.X
        sub = X[np.ix_(rows, self.others)]
        now = self.others[((sub == 0.0) | (sub == 1.0)).all(axis=0)]
        if not len(now):
            return self.bits, self.others, np.take(self.bit_matrix, rows,
                                                   axis=0)
        binary = np.zeros(X.shape[1], bool)
        binary[self.bits] = binary[now] = True
        bits = np.flatnonzero(binary)
        return (bits, np.flatnonzero(~binary),
                X[np.ix_(rows, bits)].astype(np.uint8))


class _NodeTable:
    """Trees stacked into one node table and descended together.

    Tree ``t`` owns rows ``offsets[t]:offsets[t + 1]``; a leaf's two
    children point back to the leaf, so a row that reached its leaf in a
    shallow tree stays there while deeper trees finish.  ``value`` holds
    one row per stacked node.

    ``views`` are ``memoryview``s of ``feature``, ``threshold`` and the
    left and right halves of ``children`` (and ``value_view`` of a 1-D
    ``value``, else ``None``): they share the arrays' memory, so the
    Python walk reads Python ints and floats without a copy of the
    table.  Batches of at most ``walk_max_rows`` rows take the walk.
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
        self.roots = self.offsets[:-1].tolist()
        self.views = (memoryview(self.feature), memoryview(self.threshold),
                      memoryview(self.children[1::2]),
                      memoryview(self.children[0::2]))
        self.value_view = memoryview(value) if value.ndim == 1 else None
        # mean leaf depth over all leaves: the steps a (row, tree) walk
        # takes, plus one to see it has reached its leaf
        level, depth_sum = self.offsets[:-1], 0
        pairs = self.children.reshape(-1, 2)
        for depth in range(1, self.rounds + 1):
            level = pairs[level[~leaf[level]]].ravel()
            depth_sum += depth * np.count_nonzero(leaf[level])
        steps = len(trees) * (depth_sum / np.count_nonzero(leaf) + 1)
        self.walk_max_rows = int(self.rounds * _WALK_STEPS_PER_ROUND
                                 / (steps + _WALK_STEPS_PER_ROW))

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """Stacked leaf id of every (row, tree), as an int64
        ``(rows, trees)`` array.

        A batch of at most :attr:`walk_max_rows` rows takes
        :meth:`walk`; a larger one descends all its (row, tree) pairs
        together, one round of numpy indexing per tree level.  A round's
        cost barely grows with the batch, a walk's grows with its
        steps, so the crossover is the batch whose steps (``n_trees``
        times the mean leaf depth plus one, per row) cost as much as
        ``rounds`` numpy rounds.  Both paths take the same branch at
        every node: ``x <= threshold`` on the same float64 values, where
        NaN is never ``<=`` (so goes right) and signed zeros are equal
        (so go left); they return the same leaves.
        """
        if X.shape[0] <= self.walk_max_rows:
            return np.array(self.walk(X.tolist()), np.int64).reshape(
                X.shape[0], len(self.roots))
        n, n_features = X.shape
        node = np.tile(self.offsets[:-1], (n, 1))
        # flat indices into X: ``take`` skips fancy indexing's broadcast
        row_start = np.arange(0, n * n_features, n_features)[:, None]
        flat = np.ascontiguousarray(X).ravel()
        for _ in range(self.rounds):
            go_left = (flat.take(row_start + self.feature.take(node))
                       <= self.threshold.take(node))
            node = self.children.take(2 * node + go_left)
        return node

    def walk(self, rows: list) -> list:
        """Leaf ids of each row's trees, one list per row: each
        (row, tree) pair descends in Python until it reaches a leaf,
        whose children point back to it.  ``rows`` are lists of Python
        floats (``X.tolist()``), so every test compares two floats."""
        feature, threshold, left, right = self.views
        out = []
        for row in rows:
            leaves = []
            for node in self.roots:
                while True:
                    if row[feature[node]] <= threshold[node]:
                        child = left[node]
                    else:
                        child = right[node]
                    if child == node:
                        break
                    node = child
                leaves.append(node)
            out.append(leaves)
        return out


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
        """``(leaf values, pure, totals)`` of every open node of a level;
        ``totals`` are the node target statistics ``_binary_gains``
        takes."""
        raise NotImplementedError

    def _binary_gains(self, xs, ys, starts, counts, totals):
        """``(gains, n_right)`` of every 0/1 column (threshold 0.5) for
        the nodes whose ``uint8`` bit rows are ``xs[s:s + n]`` for
        ``s, n`` in ``starts, counts`` and whose ``_level_values``
        totals are ``totals``; ``n_right`` counts each node's ones."""
        raise NotImplementedError

    def _scan_values(self, ys: np.ndarray) -> np.ndarray:
        """``(rows, channels)`` values whose per-node prefix sums
        ``_prefix_gains`` scores."""
        raise NotImplementedError

    def _prefix_gains(self, left, total, n_left, n):
        """Gains of the split positions whose left child holds ``n_left``
        of the node's ``n`` rows, with prefix sums ``left`` of the scan
        values and node sums ``total`` (one row per position)."""
        raise NotImplementedError

    # fitting ---------------------------------------------------------------

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        check_tree_params(self)
        return self._fit_rows(_Features(X), y, np.arange(len(y)))

    def _prepare_targets(self, y: np.ndarray) -> np.ndarray:
        return y.astype(np.float64)

    def _fit_rows(self, features: "_Features", y: np.ndarray,
                  rows: np.ndarray):
        """Fit on ``X[rows], y`` (``X = features.X``) without copying
        those rows of ``X``.

        With ``max_features`` below the feature count, each splittable
        node draws its candidate features from the tree's generator in
        breadth-first order (level by level, left to right), and ties
        between candidates go to the lowest feature index.
        """
        y = self._prepare_targets(y)
        X = features.X
        n_feat = self.n_features_ = X.shape[1]
        self.__dict__.pop("_node_table", None)
        rng = np.random.default_rng(self.random_state)
        n_draw = resolve_max_features(self.max_features, n_feat)
        bits, others, xs = features.bit_rows(rows)
        msl = self.min_samples_leaf
        # level state: X rows, targets and bit rows grouped by open node
        idx, ys = rows, y
        spare = None
        starts, counts = np.zeros(1, np.int64), np.array([len(y)])
        levels, n_seen, depth = [], 0, 0
        while True:
            n_open, m = len(counts), len(ys)
            value, pure, totals = self._level_values(ys, starts, counts)
            live = ~pure & (counts >= self.min_samples_split)
            if self.max_depth is not None and depth >= self.max_depth:
                live[:] = False
            # per-node drawn features; None when every feature is drawn
            allowed = None
            if n_draw < n_feat:
                allowed = np.ones((n_open, n_feat), bool)
                allowed[live] = False
                for k in np.flatnonzero(live):
                    allowed[k, rng.choice(n_feat, n_draw, replace=False)] = 1
            gain, thr = np.full(n_open, 1e-12), np.zeros(n_open)
            feat = np.full(n_open, _LEAF)
            # a node below 2 * min_samples_leaf rows has no bit split
            # with both children at min_samples_leaf
            cand = np.flatnonzero(live & (counts >= 2 * msl))
            if len(bits) and len(cand):
                g, n_right = self._binary_gains(xs, ys, starts[cand],
                                                counts[cand], totals[cand])
                bad = ((n_right < msl) | (counts[cand, None] - n_right < msl)
                       | np.isnan(g))
                if allowed is not None:
                    bad |= ~allowed[cand][:, bits]
                g[bad] = -np.inf
                best = g.argmax(axis=1)
                g = g[np.arange(len(cand)), best]
                win = g > gain[cand]
                gain[cand[win]] = g[win]
                feat[cand[win]] = bits[best[win]]
                thr[cand[win]] = 0.5
            row_node = np.repeat(np.arange(n_open), counts)
            vals = None
            for f in others:
                col = X[idx, f]
                varies = live & ~(np.minimum.reduceat(col, starts)
                                  == np.maximum.reduceat(col, starts))
                if allowed is not None:
                    varies &= allowed[:, f]
                if not varies.any():
                    continue
                if vals is None:
                    vals = self._scan_values(ys)
                k, g, t = self._split_column(col, features.rank[f][idx],
                                             vals, row_node, starts, counts,
                                             varies)
                win = g > gain[k]
                k = k[win]
                gain[k], feat[k], thr[k] = g[win], f, t[win]
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
            if spare is None:
                # made after the root's bit gains, whose float64 block
                # is the fit's largest allocation
                spare = np.empty_like(xs)
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

    def _split_column(self, col, rank, vals, row_node, starts, counts,
                      varies):
        """Best split of one non-binary column for every node in
        ``varies``: ``(nodes, gains, thresholds)`` for the nodes that
        have a valid split position.

        ``col``, ``rank`` (each value's rank among the column's distinct
        values) and ``vals`` (``_scan_values`` of the level's targets)
        hold the level's rows grouped by node, ``row_node`` names each
        row's node.  Each node's rows are sorted stably by ``col``;
        position ``i`` means the left child takes the sorted rows
        ``0..i``, and it is valid when the column value changes there and
        both children meet ``min_samples_leaf``.  A node's best position
        is the first one of maximal gain; its threshold is the midpoint
        of the two values it separates.
        """
        msl = self.min_samples_leaf
        # the stable order of (node, value): one radix sort when the
        # key fits 16 bits
        span = int(rank.max()) + 1
        key = row_node * span + rank
        if len(counts) * span <= 1 << 15:
            key = key.astype(np.int16)
        order = np.argsort(key, kind="stable")
        col_s = col[order]
        within = np.arange(len(col)) - starts[row_node]
        cut = (varies[row_node] & (within + 1 >= msl)
               & (counts[row_node] - within > msl))
        cut[:-1] &= col_s[:-1] != col_s[1:]
        at = np.flatnonzero(cut)
        node = row_node[at]
        nodes, first = np.unique(node, return_index=True)
        if not len(nodes):
            return nodes, np.zeros(0), np.zeros(0)
        # one zero-padded row per scanned node, rows of equal power-of-two
        # width stacked into one block; trailing zeros leave a prefix sum
        # unchanged, so every row's cumsum equals the node's own 1-D one
        width = 2 ** np.ceil(np.log2(counts[nodes])).astype(np.int64)
        by_width = np.argsort(width, kind="stable")
        ends = np.cumsum(width[by_width])
        row_start = np.zeros(len(counts), np.int64)
        row_start[nodes[by_width]] = ends - width[by_width]
        scanned = np.zeros(len(counts), bool)
        scanned[nodes] = True
        rows = np.flatnonzero(scanned[row_node])
        pad = np.zeros((ends[-1], vals.shape[1]))
        pad[row_start[row_node[rows]] + within[rows]] = vals[order[rows]]
        for w, a, r in zip(*(g.tolist() for g in np.unique(
                width[by_width], return_index=True, return_counts=True))):
            block = pad[ends[a] - w:ends[a] - w + r * w].reshape(r, w, -1)
            np.cumsum(block, axis=1, out=block)
        n = counts[node].astype(np.float64)
        gains = self._prefix_gains(pad[row_start[node] + within[at]],
                                   pad[row_start[node] + counts[node] - 1],
                                   within[at] + 1.0, n)
        best = np.maximum.reduceat(gains, first)
        # first position of the maximum; a NaN maximum has none and
        # never wins, as with a per-node argmax
        seg = np.repeat(np.arange(len(nodes)),
                        np.diff(np.append(first, len(at))))
        hit = np.where(gains == best[seg], np.arange(len(at)), len(at))
        pick = np.minimum.reduceat(hit, first)
        pos = at[np.minimum(pick, len(at) - 1)]
        return nodes, best, (col_s[pos] + col_s[pos + 1]) / 2.0

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


def _size_groups(starts, counts):
    """``(order, rows, groups)``: ``order`` sorts the nodes stably by
    row count, ``rows`` lists their level rows node after node in that
    order, and each run of ``n``-row nodes in it is one ``(group, span,
    n)`` of ``groups``: nodes ``order[group]``, rows ``rows[span]``.

    Reducing a run's rows reshaped to ``(nodes, n)`` along the last
    axis makes, for every node, the numpy or BLAS call that a 1-D
    reduction of the node's own rows makes (same length, same stride),
    so it rounds the same way.  ``np.add.reduceat`` would not: it adds
    each segment sequentially, where ``sum`` adds pairwise.
    """
    order = np.argsort(counts, kind="stable")
    sizes = counts[order]
    ends = np.cumsum(sizes)
    rows = np.arange(ends[-1]) + np.repeat(starts[order] - ends + sizes,
                                           sizes)
    cut = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(),
           len(order)]
    lo, hi, n = (ends - sizes).tolist(), ends.tolist(), sizes.tolist()
    return order, rows, [(slice(a, b), slice(lo[a], hi[b - 1]), n[a])
                         for a, b in zip(cut[:-1], cut[1:])]


def _bit_blocks(xs, rows, groups):
    """Yield ``(group, span, block)`` for each of ``groups`` (see
    :func:`_size_groups`): ``block`` holds the nodes' ``uint8`` bit rows
    cast to a float64 ``(nodes, n, bits)`` array.  All blocks share one
    buffer sized for the largest group: a buffer per group faulted in
    fresh pages each time.  Each node's slice has the values, shape and
    row stride a float64 bit matrix's slice would have."""
    n_bits = xs.shape[1]
    buf = np.empty(max(span.stop - span.start for _, span, _ in groups)
                   * n_bits)
    for group, span, n in groups:
        block = buf[:(span.stop - span.start) * n_bits].reshape(-1, n,
                                                                n_bits)
        if len(block) == 1:
            # a lone node's rows are a slice of xs: no uint8 copy of
            # the root, the level with the largest block
            block[0] = xs[rows[span.start]:rows[span.start] + n]
        else:
            block[...] = np.take(xs, rows[span], axis=0).reshape(
                block.shape)
        yield group, span, block


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
        sums = np.empty(len(counts))
        order, rows, groups = _size_groups(starts, counts)
        ys_by_size = ys[rows]
        for group, span, n in groups:
            sums[order[group]] = ys_by_size[span].reshape(-1, n).sum(axis=1)
        pure = (np.minimum.reduceat(ys, starts)
                == np.maximum.reduceat(ys, starts))
        return (sums / counts)[:, None], pure, sums

    def _binary_gains(self, xs, ys, starts, counts, totals):
        order, rows, groups = _size_groups(starts, counts)
        # per node in ``order``: sum x * y, x * y * y and x of every bit
        # column over the node's rows, and y @ y
        right = np.empty((3, len(starts), xs.shape[1], 1))
        total2 = np.empty((len(starts), 1, 1))
        ys_by_size = ys[rows]
        yy_by_size = ys_by_size * ys_by_size
        ones = np.ones((int(counts.max()), 1))
        # one stacked matmul per group: a gemv (or dot) per node, on the
        # strides of the per-node call; the counts of ones are exact in
        # any order
        for group, span, block in _bit_blocks(xs, rows, groups):
            g, n = block.shape[:2]
            yk = ys_by_size[span].reshape(g, n, 1)
            xk_t = block.transpose(0, 2, 1)
            np.matmul(xk_t, yk, out=right[0, group])
            np.matmul(xk_t, yy_by_size[span].reshape(g, n, 1),
                      out=right[1, group])
            np.matmul(xk_t, ones[:n], out=right[2, group])
            np.matmul(yk.reshape(g, 1, n), yk, out=total2[group])
        s1_right, s2_right, n_right = right[..., 0]
        n, total1 = counts[order, None], totals[order, None]
        total2 = total2[:, 0]
        left = (n - n_right, total1 - s1_right, total2 - s2_right)
        gains = _sse_gains(n, total1, total2, left,
                           (n_right, s1_right, s2_right))
        back = np.argsort(order)
        return gains[back], n_right[back]

    def _scan_values(self, ys):
        return np.column_stack((ys, ys * ys))

    def _prefix_gains(self, left, total, n_left, n):
        (s1l, s2l), (total1, total2) = left.T, total.T
        return _sse_gains(n, total1, total2, (n_left, s1l, s2l),
                          (n - n_left, total1 - s1l, total2 - s2l))

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
        return (per_class / per_class.sum(axis=1, keepdims=True), pure,
                per_class.astype(np.float64))

    def _binary_gains(self, xs, ys, starts, counts, totals):
        # class counts are integers, exact in any summation order
        order, rows, groups = _size_groups(starts, counts)
        onehot = self._onehot(ys[rows])
        right = np.empty((len(starts), xs.shape[1], len(self.classes_)))
        for group, span, block in _bit_blocks(xs, rows, groups):
            right[order[group]] = block.transpose(0, 2, 1) @ onehot[
                span].reshape(*block.shape[:2], -1)
        return (_gini_gains(totals[:, None] - right, right, counts[:, None]),
                right.sum(axis=2))

    def _scan_values(self, ys):
        return self._onehot(ys)

    def _prefix_gains(self, left, total, n_left, n):
        return _gini_gains(left, total - left, n)

    def predict_proba(self, X) -> np.ndarray:
        X = check_X(X, getattr(self, "n_features_", None))
        leaves = self._decision_leaves(X)
        return self.value_[leaves]

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

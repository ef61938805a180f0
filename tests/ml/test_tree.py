"""Tests for CART decision trees."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    NotFittedError,
    RandomForestRegressor,
)
from repro.ml import forest
from repro.ml.base import check_X
from repro.ml.metrics import accuracy_score, r2_score
from repro.ml.tree import _gini_gains, _sse_gains


def xor_dataset(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, (n, 2)).astype(float)
    y = (X[:, 0].astype(int) ^ X[:, 1].astype(int))
    return X, y


class TestRegressor:
    def test_fits_piecewise_constant_exactly(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 1.0, 5.0, 5.0])
        model = DecisionTreeRegressor().fit(X, y)
        np.testing.assert_allclose(model.predict(X), y)

    def test_learns_xor_interaction(self):
        X, y = xor_dataset()
        model = DecisionTreeRegressor().fit(X, y.astype(float))
        assert r2_score(y, model.predict(X)) > 0.99

    def test_max_depth_limits_tree(self):
        X, y = xor_dataset()
        stump = DecisionTreeRegressor(max_depth=1).fit(X, y.astype(float))
        assert stump.depth() <= 1
        # XOR is not learnable at depth 1
        assert r2_score(y, stump.predict(X)) < 0.3

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 3))
        y = rng.normal(size=100)
        model = DecisionTreeRegressor(min_samples_leaf=10).fit(X, y)
        leaves = model._decision_leaves(np.asarray(X))
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 10

    def test_continuous_feature_threshold(self):
        X = np.linspace(0, 1, 50)[:, None]
        y = (X[:, 0] > 0.6).astype(float) * 10
        model = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert 0.5 < model.threshold_[0] < 0.7

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeRegressor().predict([[1.0]])

    def test_wrong_feature_count_raises(self):
        X, y = xor_dataset()
        model = DecisionTreeRegressor().fit(X, y.astype(float))
        with pytest.raises(ValueError):
            model.predict(np.zeros((3, 5)))

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_training_r2_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        model = DecisionTreeRegressor(min_samples_leaf=5).fit(X, y)
        assert r2_score(y, model.predict(X)) >= 0.0

    def test_constant_target_single_leaf(self):
        X = np.arange(20, dtype=float)[:, None]
        y = np.full(20, 7.0)
        model = DecisionTreeRegressor().fit(X, y)
        assert model.n_nodes == 1
        np.testing.assert_allclose(model.predict(X), 7.0)


class TestClassifier:
    def test_learns_xor(self):
        X, y = xor_dataset()
        model = DecisionTreeClassifier().fit(X, y)
        assert accuracy_score(y, model.predict(X)) == 1.0

    def test_predict_proba_rows_sum_to_one(self):
        X, y = xor_dataset()
        model = DecisionTreeClassifier(max_depth=1).fit(X, y)
        proba = model.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_string_labels_supported(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = np.array(["ok", "err", "ok", "err"])
        model = DecisionTreeClassifier().fit(X, y)
        assert list(model.predict(X)) == ["ok", "err", "ok", "err"]

    def test_three_classes(self):
        X = np.array([[0.0], [1.0], [2.0]] * 10)
        y = np.array([0, 1, 2] * 10)
        model = DecisionTreeClassifier().fit(X, y)
        assert accuracy_score(y, model.predict(X)) == 1.0

    def test_gini_prefers_informative_feature(self):
        rng = np.random.default_rng(2)
        noise = rng.integers(0, 2, 200).astype(float)
        signal = rng.integers(0, 2, 200).astype(float)
        X = np.stack([noise, signal], axis=1)
        y = signal.astype(int)
        model = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert model.feature_[0] == 1


class TestMixedFeatures:
    def test_binary_and_continuous_agree_with_bruteforce(self):
        """Binary fast path and the sort scan must choose equally good
        splits: force each path and compare training loss."""
        rng = np.random.default_rng(3)
        n = 300
        bits = rng.integers(0, 2, (n, 6)).astype(float)
        cont = rng.uniform(0, 1, (n, 1))
        X = np.hstack([bits, cont])
        y = bits[:, 2] * 4 + (cont[:, 0] > 0.5) * 2 + rng.normal(0, .05, n)
        model = DecisionTreeRegressor(min_samples_leaf=2).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.95


def best_split_per_node(tree, col_s, y_s):
    """Best ``(gain, threshold)`` of one node's stably sorted column, the
    way the fitter scored a non-binary column one node at a time; the
    oracle for the level-wide scan (``None``: no valid position)."""
    msl = tree.min_samples_leaf
    positions = np.nonzero(col_s[:-1] != col_s[1:])[0]
    positions = positions[(positions + 1 >= msl)
                          & (len(col_s) - positions - 1 >= msl)]
    if len(positions) == 0:
        return None
    if isinstance(tree, DecisionTreeClassifier):
        cum = np.cumsum(tree._onehot(y_s), axis=0)
        left = cum[positions]
        gains = _gini_gains(left, cum[-1] - left, np.float64(len(y_s)))
    else:
        cum1, cum2 = np.cumsum(y_s), np.cumsum(y_s * y_s)
        total1, total2 = cum1[-1], cum2[-1]
        n_left = positions + 1.0
        s1l, s2l = cum1[positions], cum2[positions]
        gains = _sse_gains(len(y_s), total1, total2, (n_left, s1l, s2l),
                           (len(y_s) - n_left, total1 - s1l, total2 - s2l))
    best = int(np.argmax(gains))
    pos = positions[best]
    return float(gains[best]), float((col_s[pos] + col_s[pos + 1]) / 2.0)


def segmented_level(rng, kind):
    """Open nodes of one level: sizes from 1 row to a few thousand, a
    column of duplicated V-like values, distinct values or a constant
    per node, and non-representable targets (``y * 1.1``)."""
    counts = np.concatenate([rng.integers(1, 9, 60), rng.integers(9, 300, 25),
                             rng.integers(1000, 3000, 2)])
    rng.shuffle(counts)
    starts = np.cumsum(counts) - counts
    m = int(counts.sum())
    if kind == "low":
        col = rng.choice([0.81, 0.9, 1.0], m)
    elif kind == "high":
        col = rng.normal(size=m)
    else:
        col = np.round(rng.normal(size=m), 1)
    row_node = np.repeat(np.arange(len(counts)), counts)
    col[rng.random(len(counts))[row_node] < 0.1] = 0.5   # constant nodes
    y = rng.integers(400, 1300, m) * 1.1
    varies = rng.random(len(counts)) < 0.9
    return col, y, row_node, starts, counts, varies


class TestLevelScan:
    @pytest.mark.parametrize("msl", [1, 2, 4, 7])
    @pytest.mark.parametrize("kind", ["low", "high", "mixed"])
    @pytest.mark.parametrize("clf", [False, True])
    def test_matches_per_node_scan_bit_for_bit(self, msl, kind, clf):
        rng = np.random.default_rng(msl * 10 + len(kind) + clf)
        col, y, row_node, starts, counts, varies = segmented_level(rng, kind)
        if clf:
            tree = DecisionTreeClassifier(min_samples_leaf=msl)
            tree.classes_ = np.arange(3)
            y = (y.astype(np.int64) % 3)
        else:
            tree = DecisionTreeRegressor(min_samples_leaf=msl)
        nodes, gains, thr = tree._split_column(
            col, np.unique(col, return_inverse=True)[1], tree._scan_values(y),
            row_node, starts, counts, varies)
        order = np.lexsort((col, row_node))
        col_s, y_s = col[order], y[order]
        want = {}
        for k in np.flatnonzero(varies):
            s = slice(starts[k], starts[k] + counts[k])
            best = best_split_per_node(tree, col_s[s], y_s[s])
            if best is not None:
                want[k] = best
        assert len(want) < varies.sum()   # some nodes have no valid cut
        assert nodes.tolist() == sorted(want)
        assert np.array_equal(gains, [want[k][0] for k in nodes])
        assert np.array_equal(thr, [want[k][1] for k in nodes])

    def test_skewed_level_memory(self, monkeypatch):
        """One 5002-row node beside 4095 two-row nodes, all varying in
        the continuous column: padding every row to the longest node
        would allocate hundreds of MB.  The fit's peak stays within 10%
        of the per-node scan's peak on the same data."""
        per_node_peak = 9_233_559   # bytes; numpy 2.4, Python 3.11
        rng = np.random.default_rng(0)
        ids = np.concatenate([np.repeat(np.arange(4096), 2),
                              np.zeros(5000, np.int64)])
        bits = (ids[:, None] >> np.arange(12)) & 1
        X = np.column_stack([bits, rng.permutation(len(ids)) / len(ids)])
        y = ids * 10.0 + rng.normal(0, 0.5, len(ids))
        scans = []
        split_column = DecisionTreeRegressor._split_column

        def spy(self, col, rank, vals, row_node, starts, counts, varies):
            scans.append((int(varies.sum()), int(counts[varies].max())))
            return split_column(self, col, rank, vals, row_node, starts,
                                counts, varies)

        monkeypatch.setattr(DecisionTreeRegressor, "_split_column", spy)
        tracemalloc.start()
        try:
            DecisionTreeRegressor(max_depth=13).fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (4096, 5002) in scans
        assert peak <= 1.1 * per_node_peak


def per_node_sums(ys, starts, counts):
    """Each node's target sum, one ``sum`` call per node: the reference
    for the sums the level reduces by node size."""
    return np.array([ys[s:s + n].sum()
                     for s, n in zip(starts.tolist(), counts.tolist())])


def per_node_binary_gains(xs, ys, starts, counts, totals):
    """The regressor's bit-column gains and counts of ones, one node at
    a time: each node's rows cast into a float64 block, two ``matmul``
    calls, a ``sum`` and a ``dot`` per node."""
    yy = ys * ys
    s1_right, s2_right, n_right = np.empty((3, len(starts), xs.shape[1]))
    total2 = np.empty((len(starts), 1))
    buf = np.empty((int(counts.max()), xs.shape[1]))
    for k, (s, n) in enumerate(zip(starts.tolist(), counts.tolist())):
        xk, yk = buf[:n], ys[s:s + n]
        xk[...] = xs[s:s + n]
        np.matmul(xk.T, yk, out=s1_right[k])
        np.matmul(xk.T, yy[s:s + n], out=s2_right[k])
        xk.sum(axis=0, out=n_right[k])
        total2[k] = yk @ yk
    n, total1 = counts[:, None], totals[:, None]
    left = (n - n_right, total1 - s1_right, total2 - s2_right)
    return _sse_gains(n, total1, total2, left,
                      (n_right, s1_right, s2_right)), n_right


def same_bits(a, b):
    return (a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestGroupedReductions:
    """The level's sums and bit-column reductions run once per group of
    equal-size nodes; every node must get the bits of its own call."""

    @staticmethod
    def level(seed):
        # sizes on both sides of numpy's pairwise-sum edges (8 unrolled
        # accumulators, 128-row blocks), repeated so that groups stack
        # several nodes, beside a few large nodes
        rng = np.random.default_rng(seed)
        edges = [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130, 255, 256,
                 257, 1000, 3000]
        counts = np.concatenate([np.repeat(edges, 3),
                                 rng.integers(1, 300, 40),
                                 rng.integers(1000, 3000, 2)])
        rng.shuffle(counts)
        starts = np.cumsum(counts) - counts
        m = int(counts.sum())
        ys = rng.integers(400, 1300, m) * 1.1
        # all--0.0 nodes: a ``sum`` starts from +0.0, where
        # ``np.add.reduceat`` starts from the first row's -0.0
        zeros = [int(np.flatnonzero(counts == n)[0]) for n in (7, 129)]
        for k in zeros:
            ys[starts[k]:starts[k] + counts[k]] = -0.0
        xs = rng.integers(0, 2, (m, 20)).astype(np.uint8)
        xs[:, 3] = 1                              # a column without zeros
        return xs, ys, starts, counts, zeros

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_level_sums_match_per_node_sums(self, seed):
        _, ys, starts, counts, zeros = self.level(seed)
        tree = DecisionTreeRegressor()
        value, pure, sums = tree._level_values(ys, starts, counts)
        want = per_node_sums(ys, starts, counts)
        assert same_bits(sums, want)
        assert (sums[zeros] == 0).all() and pure[zeros].all()
        assert same_bits(value[:, 0], want / counts)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_binary_gains_match_per_node_gains(self, seed):
        xs, ys, starts, counts, _ = self.level(seed)
        tree = DecisionTreeRegressor()
        totals = per_node_sums(ys, starts, counts)
        gains, n_right = tree._binary_gains(xs, ys, starts, counts, totals)
        want_gains, want_n = per_node_binary_gains(xs, ys, starts, counts,
                                                   totals)
        assert np.isnan(gains).any() and np.isfinite(gains).any()
        assert same_bits(gains, want_gains)
        assert same_bits(n_right, want_n)

    def test_classifier_counts_match_per_node_counts(self):
        xs, ys, starts, counts, _ = self.level(3)
        tree = DecisionTreeClassifier()
        tree.classes_ = np.arange(3)
        ys = ys.astype(np.int64) % 3
        totals = tree._level_values(ys, starts, counts)[2]
        gains, n_right = tree._binary_gains(xs, ys, starts, counts, totals)
        onehot = tree._onehot(ys)
        right = np.stack([xs[s:s + n].T @ onehot[s:s + n]
                          for s, n in zip(starts.tolist(), counts.tolist())])
        assert same_bits(n_right, right.sum(axis=2))
        assert same_bits(gains, _gini_gains(totals[:, None] - right, right,
                                            counts[:, None]))


def tree_arrays(tree):
    return [tree.feature_, tree.threshold_, tree.left_, tree.right_,
            tree.value_, tree.feature_importances_]


def bits_and_levels(n=500, seed=4):
    """TEVoT-shaped rows: 0/1 operand bits plus a V-like column."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (n, 12)).astype(float)
    v = rng.choice([0.81, 0.9, 1.0], n)
    y = (bits[:, :4].sum(axis=1) * 40 + bits[:, 5] * bits[:, 6] * 25) \
        * (1.8 - v) + rng.normal(0, 2, n)
    return np.column_stack([v, bits]), np.round(y, 1)


class TestBitMatrix:
    @pytest.mark.parametrize("clf", [False, True])
    @pytest.mark.parametrize("msl,mss", [(1, 2), (4, 2), (3, 10)])
    def test_scores_only_splittable_nodes_on_uint8_rows(self, monkeypatch,
                                                         clf, msl, mss):
        X, y = bits_and_levels()
        cls = DecisionTreeClassifier if clf else DecisionTreeRegressor
        if clf:
            y = (y > np.median(y)).astype(int)
        seen = []
        binary_gains = cls._binary_gains

        def spy(self, xs, ys, starts, counts, totals):
            seen.append((xs.dtype, int(counts.min())))
            return binary_gains(self, xs, ys, starts, counts, totals)

        monkeypatch.setattr(cls, "_binary_gains", spy)
        tree = cls(min_samples_leaf=msl, min_samples_split=mss).fit(X, y)
        assert tree.depth() > 3 and seen
        assert all(dtype == np.uint8 for dtype, _ in seen)
        assert min(n for _, n in seen) >= max(mss, 2 * msl)

    @pytest.mark.parametrize("clf", [False, True])
    @pytest.mark.parametrize("msl", [1, 4])
    def test_negative_zero_bits_fit_identical_trees(self, clf, msl):
        # -0.0 is a 0/1 value to the fitter, and the uint8 bit matrix
        # folds its sign; the trees must not see the difference
        X, y = bits_and_levels(seed=5)
        if clf:
            y = (y > np.median(y)).astype(int)
        signed = X.copy()
        signed[:, 1:][X[:, 1:] == 0.0] = -0.0
        assert np.signbit(signed).any()
        cls = DecisionTreeClassifier if clf else DecisionTreeRegressor
        plain = cls(min_samples_leaf=msl).fit(X, y)
        neg = cls(min_samples_leaf=msl).fit(signed, y)
        for a, b in zip(tree_arrays(plain), tree_arrays(neg)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def signed_and_bits(n=400, seed=6):
    """A +-1 column (its splits have threshold 0.0), a continuous one
    and 0/1 bits."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], n)
    cont = rng.normal(size=n)
    bits = rng.integers(0, 2, (n, 4)).astype(float)
    y = 3 * sign + np.sin(2 * cont) + bits[:, 0] * bits[:, 1] \
        + rng.normal(0, 0.1, n)
    return np.column_stack([sign, cont, bits]), y


def edge_rows(table, X, n=200, seed=7):
    """Training rows with about half their cells replaced by NaN, 0.0,
    -0.0 or a threshold that some split on the cell's column uses."""
    rng = np.random.default_rng(seed)
    internal = table.children[0::2] != np.arange(len(table.feature))
    rows = X[rng.integers(0, len(X), n)]
    for f in range(X.shape[1]):
        pool = np.concatenate(([np.nan, 0.0, -0.0], table.threshold[
            internal & (table.feature == f)]))
        pick = rng.random(n) < 0.5
        rows[pick, f] = rng.choice(pool, int(pick.sum()))
    return rows


class TestNodeTable:
    def test_predict_rows_walks_python_rows_to_the_predict_bits(
            self, monkeypatch):
        """Up to ``walk_max_rows`` rows are walked as given, without an
        array; larger batches go through ``predict``.  Either way the
        bytes equal ``predict`` on the same rows, ties and signed zeros
        included."""
        X, y = signed_and_bits()
        model = RandomForestRegressor(n_estimators=3, random_state=0)
        table = model.fit(X, y)._table()
        rows = np.nan_to_num(edge_rows(table, X))
        crossover = model.walk_max_rows
        assert crossover == table.walk_max_rows
        want = {size: model.predict(rows[:size])
                for size in [*range(1, crossover + 2), 64]}
        checks = []
        monkeypatch.setattr(forest, "check_X", lambda X, n: checks.append(
            len(X)) or check_X(X, n))
        for size, expected in want.items():
            got = model.predict_rows(rows[:size].tolist())
            assert got.tobytes() == expected.tobytes(), size
        assert checks == [crossover + 1, 64]

    @pytest.mark.parametrize("row, message", [
        ([np.nan, 0.5, 0, 1, 0, 1], "X contains NaN or infinity"),
        ([1.0, -np.inf, 0, 1, 0, 1], "X contains NaN or infinity"),
        ([1.0, 0.5, 0, 1, 0], "X has 5 features, model was fit with 6"),
    ])
    def test_predict_rows_rejects_what_predict_rejects(self, row, message):
        X, y = signed_and_bits()
        model = RandomForestRegressor(n_estimators=3, random_state=0)
        model.fit(X, y)
        with pytest.raises(ValueError, match=message):
            model.predict_rows([row])
        with pytest.raises(ValueError):  # after a good row
            model.predict_rows([X[0].tolist(), row])
        with pytest.raises(ValueError, match="X must be 2-D"):
            model.predict_rows([])

    def test_walk_takes_the_branches_of_the_numpy_rounds(self):
        X, y = signed_and_bits()
        model = RandomForestRegressor(n_estimators=3, random_state=0)
        table = model.fit(X, y)._table()
        rows = edge_rows(table, X)
        assert 1 <= table.walk_max_rows < len(rows)
        rounds = table.leaves(rows)
        assert rounds.dtype == np.int64
        # the walk takes Python rows: NaN and -0.0 survive tolist()
        np.testing.assert_array_equal(np.array(table.walk(rows.tolist())),
                                      rounds)
        for i in range(len(rows)):         # leaves() walks one row
            np.testing.assert_array_equal(table.leaves(rows[i:i + 1]),
                                          rounds[i:i + 1])
        # the rows meet their splits with NaN, signed zeros and ties
        node = np.tile(table.offsets[:-1], (len(rows), 1))
        seen = np.zeros(3, int)
        for _ in range(table.rounds):
            x, thr = rows[np.arange(len(rows))[:, None],
                          table.feature[node]], table.threshold[node]
            split = table.children[2 * node] != node
            seen += [np.count_nonzero(split & np.isnan(x)),
                     np.count_nonzero(split & (x == 0.0) & np.signbit(x)
                                      & (thr == 0.0)),
                     np.count_nonzero(split & (x == thr))]
            node = table.children[2 * node + (x <= thr)]
        assert (seen > 0).all(), seen
        # the walk reads the table's own arrays, not copies
        for view, array in zip(table.views + (table.value_view,),
                               (table.feature, table.threshold,
                                table.children, table.children,
                                table.value)):
            assert np.shares_memory(np.asarray(view), array)

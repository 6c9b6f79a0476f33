import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from instrumentid.baselines import (
    LogisticModel, ForestConfig,
    logistic_train, logistic_predict,
    forest_train, forest_predict,
    majority_baseline, _best_split,
)

from helpers import forest_predict_loop, gini_split_loop, logistic_descent_loop


def _binary(labels_1d):
    return np.asarray(labels_1d).reshape(-1, 1)


def _preorder(table, split=lambda feature, threshold: ("split", feature),
              leaf=lambda label: ("leaf", label)):
    """One list per tree of a label's node table: ``split(feature, threshold)``
    for every inner node and ``leaf(label)`` for every leaf, in preorder. Checks
    that each split's right child follows its left subtree and each tree ends
    where the next begins."""
    roots, feature, value, right = (a.tolist() for a in table)

    def end(i):  # one past the subtree rooted at node i
        if right[i] < 0:
            return i + 1
        assert right[i] == end(i + 1)
        return end(right[i])

    assert [end(root) for root in roots] == roots[1:] + [len(right)]
    nodes = [leaf(v) if r < 0 else split(f, v) for f, v, r in zip(feature, value, right)]
    return [nodes[a:b] for a, b in zip(roots, roots[1:] + [len(nodes)])]


class TestLogistic:
    def test_zero_weights_predict_half(self):
        model = LogisticModel(np.zeros(2), np.ones(2), np.ones(2, dtype=bool),
                              np.zeros((3, 4)))
        probs = logistic_predict(model, np.random.default_rng(0).normal(size=(5, 2)))
        np.testing.assert_array_equal(probs, 0.5)

    def test_separable_toy_reaches_full_accuracy(self):
        rng = np.random.default_rng(1)
        n = 60
        x = rng.normal(size=(n, 2))
        y = _binary((x[:, 0] + x[:, 1] > 0).astype(int))
        model = logistic_train(x, y, learning_rate=1.0, epochs=500, seed=0)
        pred = (logistic_predict(model, x) >= 0.5).astype(int)
        assert (pred == y).mean() == 1.0

    def test_constant_dimension_dropped(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        x[:, 1] = 7.0  # constant -> zero variance -> dropped
        y = _binary((x[:, 0] > 0).astype(int))
        model = logistic_train(x, y, epochs=50)
        assert model.kept.tolist() == [True, False, True]
        assert model.weights.shape == (3, 1)  # 2 kept dims + bias
        probs = logistic_predict(model, x)
        assert probs.shape == (40, 1)

    def test_multilabel_training_is_per_label(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(80, 2))
        y = np.stack([(x[:, 0] > 0).astype(int), (x[:, 1] > 0).astype(int)], axis=1)
        model = logistic_train(x, y, learning_rate=1.0, epochs=400, seed=0)
        pred = (logistic_predict(model, x) >= 0.5).astype(int)
        assert (pred == y).mean() > 0.97

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 3))
        y = _binary(rng.integers(0, 2, size=30))
        w1 = logistic_train(x, y, epochs=20, seed=9).weights
        w2 = logistic_train(x, y, epochs=20, seed=9).weights
        np.testing.assert_array_equal(w1, w2)

    def test_weights_match_documented_update_loop(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(40, 60))
        y = (rng.uniform(size=(40, 3)) < [0.3, 0.5, 0.7]).astype(int)
        model = logistic_train(x, y, learning_rate=0.5, epochs=500, seed=6)
        want = logistic_descent_loop(model.transform(x), y.astype(np.float64), 0.5, 500, 6)
        assert model.weights.shape == (61, 3) and model.weights.flags.c_contiguous
        np.testing.assert_allclose(model.weights, want, rtol=1e-12)

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError, match="binary"):
            logistic_train(np.zeros((4, 2)), np.full((4, 1), 0.5))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf"), 0.0, -0.5])
    def test_rejects_bad_learning_rate(self, rate):
        # a NaN rate made every weight NaN and every prediction negative
        x = np.random.default_rng(10).normal(size=(6, 2))
        with pytest.raises(ValueError, match=f"learning rate must be finite and > 0, got {rate}"):
            logistic_train(x, _binary([0, 1, 0, 1, 0, 1]), learning_rate=rate)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_rejects_fewer_than_one_epoch(self, epochs):
        # zero epochs scored the random initial weights
        x = np.random.default_rng(10).normal(size=(6, 2))
        with pytest.raises(ValueError, match=f"epochs must be >= 1, got {epochs}"):
            logistic_train(x, _binary([0, 1, 0, 1, 0, 1]), epochs=epochs)


class TestForest:
    def test_single_stump_reproduces_threshold_rule(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0], [13.0]])
        y = _binary([0, 0, 0, 0, 1, 1, 1, 1])
        cfg = ForestConfig(trees=1, seed=0)
        model = forest_train(x, y, cfg)
        test = np.array([[4.0], [8.0]])
        scores = forest_predict(model, test)
        assert scores[0, 0] == 0.0 and scores[1, 0] == 1.0

    def test_pure_labels_predict_that_label(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 3))
        y = np.ones((20, 1), dtype=int)
        model = forest_train(x, y, ForestConfig(trees=5, seed=1))
        assert (forest_predict(model, x) == 1.0).all()

    def test_xor_pattern_learned(self):
        rng = np.random.default_rng(6)
        n = 200
        x = rng.uniform(-1, 1, size=(n, 2))
        y = _binary(((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int))
        model = forest_train(x, y, ForestConfig(trees=100, seed=2))
        pred = (forest_predict(model, x) >= 0.5).astype(int)
        assert (pred == y).mean() > 0.95

    def test_monotone_feature_transform_invariant(self):
        # split rules depend only on feature order, so a rank-preserving
        # transform changes only the thresholds: every tree splits on the
        # same features and ends in the same leaves
        rng = np.random.default_rng(7)
        x = rng.uniform(0.1, 4.0, size=(60, 3))
        y = _binary((x[:, 0] * 2 + x[:, 2] > 5).astype(int))
        cfg = ForestConfig(trees=20, seed=3)
        raw_trees = _preorder(forest_train(x, y, cfg).tables[0])

        warped = x.copy()
        warped[:, 0] = np.log(warped[:, 0])
        assert _preorder(forest_train(warped, y, cfg).tables[0]) == raw_trees

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 4))
        y = _binary(rng.integers(0, 2, size=40))
        cfg = ForestConfig(trees=10, seed=7)
        s1 = forest_predict(forest_train(x, y, cfg), x)
        s2 = forest_predict(forest_train(x, y, cfg), x)
        np.testing.assert_array_equal(s1, s2)

    def test_seeded_forest_is_pinned(self):
        # preorder (feature, threshold) of every split and the label of every
        # leaf, recorded before the split search and routing were vectorised
        rng = np.random.default_rng(11)
        x = rng.integers(0, 4, size=(16, 4)) * 0.5
        y = np.stack([x[:, 0] + x[:, 1] > 1.5, x[:, 2] > x[:, 3]], axis=1).astype(int)
        y[3] ^= 1
        model = forest_train(x, y, ForestConfig(trees=2, seed=4))
        got = [_preorder(table, split=lambda f, t: (f, t), leaf=lambda label: label)
               for table in model.tables]
        assert got == [
            [[(3, 1.25), (1, 0.75), 1, (0, 0.75), 0, 1, 0],
             [(0, 1.0), 0, (2, 0.75), (2, 0.25), 1, 0, 1]],
            [[(2, 0.75), 0, 1],
             [(3, 1.25), (3, 0.25), (1, 0.75), 0, 1, 1, 0]],
        ]

    def test_predict_matches_per_row_walk(self):
        # few distinct values, so many test values sit exactly on a threshold
        rng = np.random.default_rng(12)
        x = rng.integers(0, 5, size=(50, 4)) * 0.5
        y = (rng.uniform(size=(50, 3)) < [0.2, 0.5, 0.8]).astype(int)
        model = forest_train(x, y, ForestConfig(trees=7, seed=5))
        test = rng.integers(-1, 6, size=(40, 4)) * 0.25
        test[0, :] = np.nan  # NaN < threshold is false: every NaN goes right
        test[1, 2] = np.nan
        got = forest_predict(model, test)
        np.testing.assert_array_equal(got, forest_predict_loop(model, test))
        assert got[0].tolist() == forest_predict_loop(model, np.full((1, 4), np.inf))[0].tolist()
        assert forest_predict(model, test[:0]).shape == (0, 3)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)), min_size=1, max_size=40))
    def test_gini_split_matches_boundary_loop(self, rows):
        # few distinct values, so tied values and tied impurities are common
        values = np.array([v for v, _ in rows], dtype=np.float64) * 0.5
        targets = np.array([t for _, t in rows], dtype=np.float64)
        impurity, column, threshold = _best_split(values[:, None], targets)
        want = gini_split_loop(values, targets, min_leaf=1)
        assert (impurity, threshold) == want
        assert type(threshold) is type(want[1])
        assert column == (None if want[1] is None else 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda k: st.lists(
        st.tuples(st.lists(st.integers(0, 3), min_size=k, max_size=k), st.integers(0, 1)),
        min_size=1, max_size=30)))
    def test_best_split_takes_first_column_with_least_impurity(self, rows):
        x = np.array([v for v, _ in rows], dtype=np.float64) * 0.5
        targets = np.array([t for _, t in rows], dtype=np.float64)
        want = (np.inf, None, None)
        for column in range(x.shape[1]):
            impurity, threshold = gini_split_loop(x[:, column], targets, min_leaf=1)
            if impurity < want[0]:
                want = (impurity, column, threshold)
        assert _best_split(x, targets) == want


@pytest.mark.parametrize("train", [
    lambda x, y: logistic_train(x, y),
    lambda x, y: forest_train(x, y, ForestConfig(trees=1)),
], ids=["logistic", "forest"])
@pytest.mark.parametrize("column,where", [
    ([0.0, 1.0, np.nan, 2.0], "nan at row 2, column 1"),
    ([-np.inf, 1.0, np.inf, 2.0], "-inf at row 0, column 1"),  # their midpoint is NaN
], ids=["nan", "inf-pair"])
def test_non_finite_training_feature_names_row_and_column(train, column, where):
    # a NaN threshold splits a forest node into itself, and a NaN std drops the column
    x = np.stack([np.arange(4.0), column], axis=1)
    with pytest.raises(ValueError, match=f"non-finite training feature {where}$"):
        train(x, _binary([0, 1, 0, 1]))


@pytest.mark.parametrize("predict,train", [
    (logistic_predict, lambda x, y: logistic_train(x, y, epochs=5)),
    (forest_predict, lambda x, y: forest_train(x, y, ForestConfig(trees=2))),
], ids=["logistic", "forest"])
@pytest.mark.parametrize("shape", [(5, 2), (5, 4), (3,)], ids=["narrower", "wider", "1-d"])
def test_predict_rejects_another_feature_width(predict, train, shape):
    # unchecked, a forest routes a wider matrix on whichever columns its splits name
    x = np.random.default_rng(14).normal(size=(8, 3))
    model = train(x, _binary([0, 1] * 4))
    want = f"trained on 3 feature columns, got features of shape {shape}"
    with pytest.raises(ValueError, match=re.escape(want) + "$"):
        predict(model, np.zeros(shape))


@pytest.mark.parametrize("train", [
    lambda x, y: logistic_train(x, y, epochs=1, seed=-1),
    lambda x, y: forest_train(x, y, ForestConfig(trees=1, seed=-1)),
], ids=["logistic", "forest"])
def test_negative_seed_is_named(train):
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        train(np.zeros((2, 1)), _binary([0, 1]))


class TestMajority:
    def test_top_three_by_count(self):
        labels = np.zeros((20, 11), dtype=int)
        labels[:10, 0] = 1
        labels[:9, 1] = 1
        labels[:8, 2] = 1
        labels[:1, 3] = 1
        pred = majority_baseline(labels)
        assert pred.tolist() == [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]

    def test_tie_for_third_goes_to_lower_index(self):
        labels = np.zeros((10, 11), dtype=int)
        labels[:5, 0] = 1
        labels[:4, 1] = 1
        labels[:3, 5] = 1  # tie between labels 5 and 7
        labels[:3, 7] = 1
        pred = majority_baseline(labels)
        assert pred.tolist() == [1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0]

    def test_perfect_on_three_always_on_labels(self):
        # test set where labels 0-2 are always on and the rest always off:
        # the fixed majority vector scores hamming accuracy 1.0
        from instrumentid.metrics import evaluate
        train = np.zeros((30, 11), dtype=int)
        train[:, :3] = 1
        test = np.zeros((12, 11), dtype=int)
        test[:, :3] = 1
        pred = np.tile(majority_baseline(train), (12, 1))
        assert evaluate(pred, test).hamming_accuracy == 1.0

    def test_hamming_accuracy_matches_analytic_expectation(self):
        # test labels engineered with known frequencies, fixed predictor
        rng = np.random.default_rng(9)
        train = np.zeros((50, 11), dtype=int)
        train[:, :3] = 1  # majority = labels 0, 1, 2
        pred_vec = majority_baseline(train)
        freq = np.array([0.9, 0.8, 0.1, 0.5] + [0.0] * 7)
        n = 2000
        test = (rng.uniform(size=(n, 11)) < freq).astype(int)
        pred = np.tile(pred_vec, (n, 1))
        acc = (pred == test).mean()
        expected = np.where(pred_vec == 1, freq, 1 - freq).mean()
        assert acc == pytest.approx(expected, abs=0.02)

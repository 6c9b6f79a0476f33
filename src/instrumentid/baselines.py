"""Shallow baselines over the Gaussian MFCC features.

Three reference predictors: one-vs-rest logistic regression, per-label random
forests, and the fixed majority-class vector. All are deterministic given
their seeds.
"""

from dataclasses import dataclass, field

import numpy as np

from .nn.layers import sigmoid


def _validate_xy(features, labels):
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or labels.ndim != 2:
        raise ValueError(
            f"need [n, d] features and [n, labels] targets, got {features.shape}/{labels.shape}"
        )
    if features.shape[0] != labels.shape[0]:
        raise ValueError(f"{features.shape[0]} feature rows vs {labels.shape[0]} label rows")
    if features.shape[0] < 1:
        raise ValueError("empty training set")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary 0/1")
    bad = np.argwhere(~np.isfinite(features))
    if len(bad):  # a NaN threshold would split a node into itself forever
        row, col = bad[0]
        raise ValueError(f"non-finite training feature {features[row, col]} "
                         f"at row {row}, column {col}")
    return features, labels.astype(np.float64)


def _check_width(features, width: int) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != width:
        raise ValueError(f"model was trained on {width} feature columns, "
                         f"got features of shape {features.shape}")
    return features


@dataclass
class LogisticModel:
    """Per-label logistic weights over z-scored features.

    ``kept`` masks out constant feature dimensions (zero variance in the
    training set); ``weights`` is ``[kept_dims + 1, n_labels]`` with the bias
    in the last row.
    """

    mean: np.ndarray
    std: np.ndarray
    kept: np.ndarray
    weights: np.ndarray

    def transform(self, features) -> np.ndarray:
        features = _check_width(features, len(self.mean))
        z = (features[:, self.kept] - self.mean[self.kept]) / self.std[self.kept]
        return np.hstack([z, np.ones((len(z), 1))])


def check_logistic_settings(learning_rate: float, epochs: int, seed: int) -> None:
    """Reject the settings :func:`logistic_train` cannot run with."""
    if not 0 < learning_rate < np.inf:  # NaN fails too
        raise ValueError(f"learning rate must be finite and > 0, got {learning_rate}")
    if not epochs >= 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def logistic_train(features, labels, learning_rate: float = 0.5,
                   epochs: int = 500, seed: int = 0) -> LogisticModel:
    """Full-batch gradient descent on the mean BCE, one model per label column.

    Each epoch is ``w -= lr * xz.T @ (sigmoid(xz @ w) - y) / n``, run
    label-major: the weights are held as ``[labels, dims]`` against
    contiguous transposed copies of ``xz`` and ``y`` made once, which puts
    both products in BLAS's fast orientation.
    """
    check_logistic_settings(learning_rate, epochs, seed)
    x, y = _validate_xy(features, labels)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    kept = std > 0
    model = LogisticModel(mean, std, kept, None)
    xz = model.transform(x)
    n, d = xz.shape
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1e-3, 1e-3, size=(d, y.shape[1])).T.copy()
    xt = np.ascontiguousarray(xz.T)
    yt = np.ascontiguousarray(y.T)
    for _ in range(epochs):
        p = sigmoid(w @ xt)
        w -= learning_rate * ((p - yt) @ xz) / n
    model.weights = np.ascontiguousarray(w.T)
    return model


def logistic_predict(model: LogisticModel, features) -> np.ndarray:
    """Per-label probabilities, ``[n, n_labels]``."""
    return sigmoid(model.transform(features) @ model.weights)


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.trees < 1:
            raise ValueError(f"need at least one tree, got {self.trees}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _best_split(x, y):
    """Best midpoint split over the columns of ``x``: (impurity, column, threshold),
    or ``(inf, None, None)`` without a boundary between distinct values. Ties go
    to the first column, then its lowest boundary."""
    n = len(y)
    if n < 2 or not x.shape[1]:
        return (np.inf, None, None)
    order = np.argsort(x, axis=0, kind="stable")
    v = np.take_along_axis(x, order, axis=0)
    pos_prefix = np.cumsum(y[order], axis=0)
    n_left = np.arange(1, n)[:, None]
    n_right = n - n_left
    p_l = pos_prefix[:-1] / n_left
    p_r = (pos_prefix[-1] - pos_prefix[:-1]) / n_right
    gini = (n_left * 2.0 * p_l * (1.0 - p_l) + n_right * 2.0 * p_r * (1.0 - p_r)) / n
    # a boundary between equal values is no boundary
    gini[v[1:] == v[:-1]] = np.inf
    column, b = divmod(int(np.argmin(gini.T)), n - 1)
    if gini[b, column] == np.inf:
        return (np.inf, None, None)
    return (gini[b, column], column, 0.5 * (v[b, column] + v[b + 1, column]))


def _grow_tree(x, y, rng, nodes: list) -> None:
    """Append one tree to ``nodes`` in preorder: ``[feature, threshold, right]``
    for a split (its left child is the next node), ``[-1, label, -1]`` for a
    leaf. Split until every leaf is pure or no candidate feature varies."""
    n = len(y)
    pos = int(y.sum())
    column = None
    if 0 < pos < n:
        d = x.shape[1]
        candidates = rng.choice(d, size=int(round(np.sqrt(d))), replace=False)
        _, column, threshold = _best_split(x[:, candidates], y)
    if column is None:
        nodes.append([-1, int(pos * 2 >= n), -1])
        return
    split = [int(candidates[column]), float(threshold), -1]
    nodes.append(split)
    mask = x[:, split[0]] < threshold
    _grow_tree(x[mask], y[mask], rng, nodes)
    split[2] = len(nodes)
    _grow_tree(x[~mask], y[~mask], rng, nodes)


@dataclass
class ForestModel:
    width: int  # feature columns seen in training
    # per label, one node table (roots, feature, value, right) of all its trees
    # in _grow_tree's preorder; roots index each tree's first node
    tables: list = field(default_factory=list)


def forest_train(features, labels, cfg: ForestConfig = ForestConfig()) -> ForestModel:
    """Per-label random forests of fully grown trees, each on a seeded
    bootstrap sample, with Gini splits over ``round(sqrt(d))`` random features
    and midpoint thresholds. Tree seeds are ``seed + tree index`` (trees
    numbered across labels), so training order cannot matter."""
    x, y = _validate_xy(features, labels)
    model = ForestModel(x.shape[1])
    n = len(x)
    for label_idx in range(y.shape[1]):
        roots, nodes = [], []
        target = y[:, label_idx]
        for t in range(cfg.trees):
            rng = np.random.default_rng(cfg.seed + label_idx * cfg.trees + t)
            boot = rng.integers(0, n, size=n)
            roots.append(len(nodes))
            _grow_tree(x[boot], target[boot], rng, nodes)
        feature, value, right = np.array(nodes).T.copy()
        model.tables.append((np.array(roots), feature.astype(np.intp), value, right.astype(np.intp)))
    return model


def forest_predict(model: ForestModel, features) -> np.ndarray:
    """Fraction of trees voting positive, per label; active iff >= 0.5. Each
    step moves every (tree, row) pair of a label one level down, NaN to the right."""
    features = _check_width(features, model.width)
    rows = np.arange(len(features))
    scores = np.zeros((len(features), len(model.tables)))
    for label_idx, (roots, feature, value, right) in enumerate(model.tables):
        node = np.repeat(roots[:, None], len(rows), axis=1)  # [trees, rows]
        while (split := right[node] >= 0).any():
            goes_left = features[rows, feature[node]] < value[node]
            node = np.where(split, np.where(goes_left, node + 1, right[node]), node)
        scores[:, label_idx] = value[node].sum(axis=0) / len(roots)
    return scores


def majority_baseline(train_labels) -> np.ndarray:
    """Fixed prediction: the 3 most common labels set, ties to the lower index."""
    labels = np.asarray(train_labels)
    if labels.ndim != 2:
        raise ValueError(f"labels must be [n, labels], got shape {labels.shape}")
    counts = labels.sum(axis=0)
    order = np.lexsort((np.arange(labels.shape[1]), -counts))
    out = np.zeros(labels.shape[1], dtype=np.uint8)
    out[order[:3]] = 1
    return out

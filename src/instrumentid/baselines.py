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
    return features, labels.astype(np.float64)


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
        features = np.asarray(features, dtype=np.float64)
        z = (features[:, self.kept] - self.mean[self.kept]) / self.std[self.kept]
        return np.hstack([z, np.ones((len(z), 1))])


def logistic_train(features, labels, learning_rate: float = 0.5,
                   epochs: int = 500, seed: int = 0) -> LogisticModel:
    """Full-batch gradient descent on the mean BCE of 11 one-vs-rest models."""
    x, y = _validate_xy(features, labels)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    kept = std > 0
    model = LogisticModel(mean, std, kept, None)
    xz = model.transform(x)
    n, d = xz.shape
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1e-3, 1e-3, size=(d, y.shape[1]))
    for _ in range(epochs):
        p = sigmoid(xz @ w)
        w -= learning_rate * (xz.T @ (p - y)) / n
    model.weights = w
    return model


def logistic_predict(model: LogisticModel, features) -> np.ndarray:
    """Per-label probabilities, ``[n, n_labels]``."""
    return sigmoid(model.transform(features) @ model.weights)


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 200
    max_depth: int | None = None
    min_leaf: int = 1
    features_per_split: int | None = None  # default: round(sqrt(d))
    seed: int = 0
    bootstrap: bool = True

    def __post_init__(self):
        if self.trees < 1:
            raise ValueError(f"need at least one tree, got {self.trees}")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {self.min_leaf}")


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "label")

    def __init__(self, label=None, feature=None, threshold=None, left=None, right=None):
        self.label = label
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


def _gini_split(values, targets, min_leaf):
    """Best midpoint threshold for one feature; returns (impurity, threshold)."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    t = targets[order]
    n = len(v)
    pos_prefix = np.cumsum(t)
    total_pos = pos_prefix[-1]
    best = (np.inf, None)
    # candidate boundaries sit between consecutive distinct values
    boundaries = np.nonzero(v[1:] != v[:-1])[0]
    for b in boundaries:
        n_left = b + 1
        n_right = n - n_left
        if n_left < min_leaf or n_right < min_leaf:
            continue
        pos_left = pos_prefix[b]
        pos_right = total_pos - pos_left
        p_l = pos_left / n_left
        p_r = pos_right / n_right
        gini = (n_left * 2.0 * p_l * (1.0 - p_l) + n_right * 2.0 * p_r * (1.0 - p_r)) / n
        if gini < best[0]:
            best = (gini, 0.5 * (v[b] + v[b + 1]))
    return best


def _grow_tree(x, y, cfg: ForestConfig, rng, depth: int) -> _Node:
    n = len(y)
    pos = int(y.sum())
    if pos == 0 or pos == n or n < 2 * cfg.min_leaf or \
            (cfg.max_depth is not None and depth >= cfg.max_depth):
        return _Node(label=int(pos * 2 >= n))
    d = x.shape[1]
    k = cfg.features_per_split or max(1, int(round(np.sqrt(d))))
    candidates = rng.choice(d, size=min(k, d), replace=False)
    best_gini, best_feature, best_threshold = np.inf, None, None
    for f in candidates:
        gini, threshold = _gini_split(x[:, f], y, cfg.min_leaf)
        if threshold is not None and gini < best_gini:
            best_gini, best_feature, best_threshold = gini, f, threshold
    if best_feature is None:
        return _Node(label=int(pos * 2 >= n))
    mask = x[:, best_feature] < best_threshold
    left = _grow_tree(x[mask], y[mask], cfg, rng, depth + 1)
    right = _grow_tree(x[~mask], y[~mask], cfg, rng, depth + 1)
    return _Node(feature=int(best_feature), threshold=float(best_threshold),
                 left=left, right=right)


def _tree_predict(node: _Node, row) -> int:
    while node.label is None:
        node = node.left if row[node.feature] < node.threshold else node.right
    return node.label


@dataclass
class ForestModel:
    config: ForestConfig
    label_trees: list = field(default_factory=list)  # one tree list per label


def forest_train(features, labels, cfg: ForestConfig = ForestConfig()) -> ForestModel:
    """Per-label random forests: seeded bootstrap, Gini splits on a random
    feature subset, midpoint thresholds. Tree seeds are ``seed + tree index``
    (trees numbered across labels), so training order cannot matter."""
    x, y = _validate_xy(features, labels)
    model = ForestModel(cfg)
    n = len(x)
    for label_idx in range(y.shape[1]):
        trees = []
        target = y[:, label_idx]
        for t in range(cfg.trees):
            rng = np.random.default_rng(cfg.seed + label_idx * cfg.trees + t)
            boot = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
            trees.append(_grow_tree(x[boot], target[boot], cfg, rng, 0))
        model.label_trees.append(trees)
    return model


def forest_predict(model: ForestModel, features) -> np.ndarray:
    """Fraction of trees voting positive, per label; active iff >= 0.5."""
    features = np.asarray(features, dtype=np.float64)
    scores = np.zeros((len(features), len(model.label_trees)))
    for label_idx, trees in enumerate(model.label_trees):
        for i, row in enumerate(features):
            scores[i, label_idx] = sum(_tree_predict(t, row) for t in trees) / len(trees)
    return scores


def majority_baseline(train_labels, top: int = 3) -> np.ndarray:
    """Fixed prediction: the ``top`` most common labels set, ties to the lower index."""
    labels = np.asarray(train_labels)
    if labels.ndim != 2:
        raise ValueError(f"labels must be [n, labels], got shape {labels.shape}")
    counts = labels.sum(axis=0)
    order = np.lexsort((np.arange(labels.shape[1]), -counts))
    out = np.zeros(labels.shape[1], dtype=np.uint8)
    out[order[:top]] = 1
    return out

"""Forests of decision trees in one flat node table, with simplex weights."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import DataError, DimensionError
from .tree import RANDOM_SPLIT, TreeParams, train_tree

SIMPLEX_TOL = 1e-6


def uniform_weights(n_trees: int) -> np.ndarray:
    return np.full(n_trees, 1.0 / n_trees)


def check_weights(w, n_trees: int, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Validate a weight vector: right length, non-negative, sums to one."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n_trees,):
        raise DimensionError(f"expected {n_trees} weights, got shape {w.shape}")
    if w.min() < -tol or abs(w.sum() - 1.0) > tol:
        raise ValueError(
            f"weights are off the unit simplex: min {w.min():.3g}, sum {w.sum():.6g}"
        )
    return w


@dataclass
class ForestModel:
    """T trees of one kind in one flat node table, plus simplex weights.

    Node ids are global: tree t owns nodes ``roots[t]`` up to the next root,
    ``feature[i] < 0`` marks node i as a leaf, and children always have
    larger ids than their parent, so routing ends once every position sits
    on a leaf.  ``dist`` rows are the leaf class distributions.
    """

    feature: np.ndarray  # (n_nodes,) int32, -1 at leaves
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray  # (n_nodes,) int32 global node ids
    right: np.ndarray  # (n_nodes,) int32 global node ids
    dist: np.ndarray  # (n_nodes, C) float64, valid at leaf rows
    roots: np.ndarray  # (T,) int32
    weights: np.ndarray  # (T,) float64 on the unit simplex
    kind: str
    num_classes: int
    n_features: int

    def __post_init__(self):
        self.weights = check_weights(self.weights, self.n_trees)

    @property
    def n_trees(self) -> int:
        return self.roots.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def with_weights(self, w) -> "ForestModel":
        return replace(self, weights=check_weights(w, self.n_trees))


def train_forest(
    ds: Dataset,
    kind: str,
    n_trees: int,
    params: TreeParams,
    rng: np.random.Generator,
) -> ForestModel:
    """Train ``n_trees`` trees into one node table and weight them uniformly.

    Random-split-search trees each see a bootstrap resample; completely-random
    trees see the full data.  Each tree gets its own spawned rng stream, so
    training is reproducible tree by tree.
    """
    if n_trees < 1:
        raise ValueError(f"need at least one tree, got {n_trees}")
    if ds.n == 0:
        raise DataError("cannot train a forest on an empty dataset")
    trees = []
    for tree_rng in rng.spawn(n_trees):
        if kind == RANDOM_SPLIT:
            view = ds.subset(tree_rng.integers(0, ds.n, size=ds.n))
        else:
            view = ds
        trees.append(train_tree(view, kind, params, tree_rng))
    feature, threshold, left, right, dist = map(np.concatenate, zip(*trees))
    sizes = [tree[0].size for tree in trees]
    roots = (np.cumsum(sizes) - sizes).astype(np.int32)
    internal = feature >= 0
    offset = np.repeat(roots, sizes)[internal]
    left[internal] += offset
    right[internal] += offset
    return ForestModel(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        dist=dist,
        roots=roots,
        weights=uniform_weights(n_trees),
        kind=kind,
        num_classes=ds.num_classes,
        n_features=ds.feature_dim,
    )


def forest_tree_dists(forest: ForestModel, x: np.ndarray) -> np.ndarray:
    """Per-tree class distributions for one input, shape (T, C)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (forest.n_features,):
        raise DimensionError(
            f"expected a length-{forest.n_features} vector, got shape {x.shape}"
        )
    return forest_tree_dists_batch(forest, x[None, :])[0]


def forest_tree_dists_batch(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """Per-tree class distributions for each row of X, shape (n, T, C).

    Routes all n*T (row, tree) positions at once; position k is row k // T
    in tree k % T.  Each step moves every position not yet on a leaf one
    level down, and a tie at a threshold goes left.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise DimensionError(
            f"expected (n, {forest.n_features}) inputs, got {X.shape}"
        )
    n, T = X.shape[0], forest.n_trees
    feature, threshold = forest.feature, forest.threshold
    node = np.tile(forest.roots, n)
    live = np.flatnonzero(feature[node] >= 0)
    while live.size:
        at = node[live]
        go_left = X[live // T, feature[at]] <= threshold[at]
        at = np.where(go_left, forest.left[at], forest.right[at])
        node[live] = at
        live = live[feature[at] >= 0]
    return forest.dist[node].reshape(n, T, forest.num_classes)


def forest_class_vector(forest: ForestModel, x: np.ndarray, w) -> np.ndarray:
    """Weighted class vector v_c = sum_t p_c^(t) w_t; a probability vector."""
    w = check_weights(w, forest.n_trees)
    return w @ forest_tree_dists(forest, x)


def class_vectors_batch(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """Class vectors for each row of X under the forest's weights, shape (n, C)."""
    return np.einsum("ntc,t->nc", forest_tree_dists_batch(forest, X), forest.weights)

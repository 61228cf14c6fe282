"""Forests of decision trees in one compact node table, with simplex weights."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import DataError, DimensionError, ModelFormatError
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
    """T trees of one kind in one compact node table, plus simplex weights.

    Only internal nodes have rows in ``feature`` and ``threshold``.  Node ids
    are global across the forest, and each tree's internal nodes are stored
    in depth-first preorder, so a child id is always larger than its
    parent's.  Internal node i sends an input x to
    ``children[2*i + go_left]`` with ``go_left = x[feature[i]] <= threshold[i]``
    (a tie goes left).  A reference ``>= 0`` is an internal node and ``~l``
    is leaf l, whose class distribution is ``dist[l]``; ``roots[t]`` is tree
    t's root reference, itself ``~l`` for a single-leaf tree.
    """

    feature: np.ndarray  # (n_internal,) int32 split features
    threshold: np.ndarray  # (n_internal,) float64
    children: np.ndarray  # (2 * n_internal,) int32 references, right then left
    dist: np.ndarray  # (n_leaves, C) float64 leaf class distributions
    roots: np.ndarray  # (T,) int32 references
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
        """Internal nodes plus leaves."""
        return self.feature.shape[0] + self.dist.shape[0]

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
    training is reproducible tree by tree.  Tree t's internal ids and leaf
    ids are offset by the internal nodes and leaves of trees 0..t-1.
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
    feature, threshold, children, dist = map(np.concatenate, zip(*trees))
    n_internal = np.array([tree[0].size for tree in trees])
    n_leaves = np.array([tree[3].shape[0] for tree in trees])
    node_start = np.cumsum(n_internal) - n_internal
    leaf_start = np.cumsum(n_leaves) - n_leaves
    # an internal reference moves up by node_start, a leaf ~l to ~(l + leaf_start)
    children += np.where(
        children >= 0,
        np.repeat(node_start, 2 * n_internal),
        -np.repeat(leaf_start, 2 * n_internal),
    ).astype(np.int32)
    return ForestModel(
        feature=feature,
        threshold=threshold,
        children=children,
        dist=dist,
        roots=np.where(n_internal > 0, node_start, ~leaf_start).astype(np.int32),
        weights=uniform_weights(n_trees),
        kind=kind,
        num_classes=ds.num_classes,
        n_features=ds.feature_dim,
    )


def forest_tree_dists_batch(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """Per-tree class distributions for each row of X, shape (n, T, C).

    Routes all n*T (row, tree) positions at once; position k is row k // T
    in tree k % T.  Each step moves every position still on an internal node
    one level down, reading its split value from ``X.ravel()`` at
    ``row * m + feature``.  No root-to-leaf path visits more than n_internal
    nodes, so a table that needs more steps has a cycle and raises
    :class:`ModelFormatError` instead of looping forever.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise DimensionError(
            f"expected (n, {forest.n_features}) inputs, got {X.shape}"
        )
    n, T = X.shape[0], forest.n_trees
    feature, threshold, children = forest.feature, forest.threshold, forest.children
    flat = X.ravel()
    node = np.tile(forest.roots, n)
    live = np.flatnonzero(node >= 0)
    at = node.take(live)
    row_start = live // T * X.shape[1]
    for _ in range(feature.size + 1):
        if not live.size:
            return forest.dist.take(~node, axis=0).reshape(n, T, forest.num_classes)
        go_left = flat.take(row_start + feature.take(at)) <= threshold.take(at)
        at = children.take(2 * at + go_left)
        node[live] = at
        keep = np.flatnonzero(at >= 0)
        if keep.size < at.size:
            live, at, row_start = live.take(keep), at.take(keep), row_start.take(keep)
    raise ModelFormatError(
        f"routing took more than {feature.size} steps: the node table has a cycle"
    )


def class_vectors_batch(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """Class vectors for each row of X under the forest's weights, shape (n, C)."""
    return np.einsum("ntc,t->nc", forest_tree_dists_batch(forest, X), forest.weights)

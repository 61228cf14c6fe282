"""Forests of decision trees in one compact node table, with simplex weights."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import DataError, DimensionError, ModelFormatError
from .tree import RANDOM_SPLIT, TreeParams, grow_trees

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

    Only internal nodes have rows in ``feature`` and ``threshold``.  Node and
    leaf ids are global across the forest and numbered breadth-first: all
    nodes at depth d, tree by tree, come before any node at depth d + 1, so a
    child id is always larger than its parent's.  Internal node i sends an
    input x to ``children[2*i + go_left]`` with
    ``go_left = x[feature[i]] <= threshold[i]`` (a tie goes left).  A
    reference ``>= 0`` is an internal node and ``~l`` is leaf l, whose class
    distribution is ``dist[l]``; ``roots[t]`` is tree t's root reference,
    itself ``~l`` for a single-leaf tree.
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


def train_forests(
    ds: Dataset,
    kind: str,
    n_trees: int,
    params: TreeParams,
    row_sets: list[np.ndarray],
    rngs: list[np.random.Generator],
) -> list[ForestModel]:
    """Train one forest of ``n_trees`` trees per row set in one grower call.

    Forest f trains on the rows ``row_sets[f]`` of ``ds`` with its own
    generator ``rngs[f]`` and is weighted uniformly.  Random-split-search
    trees each see a bootstrap resample of their forest's rows;
    completely-random trees see the rows themselves.  A generator first
    draws its forest's bootstraps, an (n_trees, len(rows)) block of indices
    into the rows, and then, one block per depth, the split draws for its
    forest's own open nodes (:func:`~disdf.tree.grow_trees`), so a forest
    is the same whether it is grown alone or with others.
    """
    if n_trees < 1:
        raise ValueError(f"need at least one tree, got {n_trees}")
    rows = []
    for idx, rng in zip(row_sets, rngs, strict=True):
        if len(idx) == 0:
            raise DataError("cannot train a forest on no rows")
        if kind == RANDOM_SPLIT:
            rows.append(idx[rng.integers(0, len(idx), size=(n_trees, len(idx)))])
        else:
            rows.append(np.broadcast_to(idx, (n_trees, len(idx))))
    return [
        ForestModel(
            *table,
            weights=uniform_weights(n_trees),
            kind=kind,
            num_classes=ds.num_classes,
            n_features=ds.feature_dim,
        )
        for table in grow_trees(ds, kind, params, rows, rngs)
    ]


def train_forest(
    ds: Dataset,
    kind: str,
    n_trees: int,
    params: TreeParams,
    rng: np.random.Generator,
) -> ForestModel:
    """Train ``n_trees`` trees on all of ``ds``: :func:`train_forests` for one forest."""
    return train_forests(ds, kind, n_trees, params, [np.arange(ds.n)], [rng])[0]


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

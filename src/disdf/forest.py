"""Forests of decision trees in one compact node table, with simplex weights."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import Dataset
from .errors import DataError, DimensionError, ModelFormatError
from .tree import RANDOM_SPLIT, TreeParams, grow_trees

SIMPLEX_TOL = 1e-6
# rows that class_vectors_batch routes and weighs at a time
_BLOCK = 512


def uniform_weights(n_trees: int) -> np.ndarray:
    return np.full(n_trees, 1.0 / n_trees)


def check_weights(w, n_trees: int) -> np.ndarray:
    """Validate a weight vector: right length, finite, non-negative, sums to one."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n_trees,):
        raise DimensionError(f"expected {n_trees} weights, got shape {w.shape}")
    if not np.isfinite(w).all() or w.min() < -SIMPLEX_TOL or abs(w.sum() - 1.0) > SIMPLEX_TOL:
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
    reference ``>= 0`` is an internal node and ``~l`` is leaf l, whose
    training rows per class are ``counts[l]``; ``roots[t]`` is tree t's root
    reference, itself ``~l`` for a single-leaf tree.
    """

    feature: np.ndarray  # (n_internal,) int32 split features
    threshold: np.ndarray  # (n_internal,) float64
    children: np.ndarray  # (2 * n_internal,) int32 references, right then left
    counts: np.ndarray  # (n_leaves, C) uint32 training rows per leaf and class
    roots: np.ndarray  # (T,) int32 references
    weights: np.ndarray  # (T,) float64 on the unit simplex
    kind: str
    n_features: int

    def __post_init__(self):
        self.weights = check_weights(self.weights, self.n_trees)

    @property
    def n_trees(self) -> int:
        return self.roots.shape[0]

    @property
    def num_classes(self) -> int:
        return self.counts.shape[1]

    @property
    def n_nodes(self) -> int:
        """Internal nodes plus leaves."""
        return self.feature.shape[0] + self.counts.shape[0]

    @cached_property
    def dist(self) -> np.ndarray:
        """(n_leaves, C) float64 leaf class distributions, the counts over their sums."""
        return self.counts / self.counts.sum(axis=1, dtype=np.int64)[:, None]

    @cached_property
    def walk_refs(self) -> tuple[np.ndarray, np.ndarray]:
        """``children`` and ``roots`` renumbered for :func:`_walk_tables` (:func:`_walk_refs`)."""
        children, roots = _walk_refs([self])
        return children, roots[0]

    def with_weights(self, w) -> "ForestModel":
        return replace(self, weights=w)


def train_forests(
    ds: Dataset,
    kinds: list[str],
    n_trees: int,
    params: TreeParams,
    row_sets: list[np.ndarray],
    rngs: list[np.random.Generator],
) -> list[ForestModel]:
    """Train one forest of ``n_trees`` trees per row set in one grower call.

    Forest f is of kind ``kinds[f]``, trains on the rows ``row_sets[f]`` of
    ``ds`` with its own generator ``rngs[f]`` and is weighted uniformly.
    Random-split-search trees each see a bootstrap resample of their
    forest's rows; completely-random trees see the rows themselves.  A
    generator first draws its forest's bootstraps, an (n_trees, len(rows))
    block of indices into the rows, and then, one block per depth, the split
    draws for its forest's own open nodes (:func:`~disdf.tree.grow_trees`),
    so a forest is the same whether it is grown alone or with others, and
    split scoring is bounded to ``tree.SCORE_POSITIONS`` positions at a time
    however many forests are grown.
    """
    if n_trees < 1:
        raise ValueError(f"need at least one tree, got {n_trees}")
    rows = []
    for kind, idx, rng in zip(kinds, row_sets, rngs, strict=True):
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
            n_features=ds.feature_dim,
        )
        for kind, table in zip(kinds, grow_trees(ds, kinds, params, rows, rngs))
    ]


def _inputs(forest: ForestModel, X) -> np.ndarray:
    """X as a float64 (n, m) matrix for the forest's m features."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise DimensionError(
            f"expected (n, {forest.n_features}) inputs, got {X.shape}"
        )
    return X


def _walk_refs(forests: list[ForestModel]) -> tuple[np.ndarray, np.ndarray]:
    """The children and the (len(forests), T) roots of the forests' node
    tables concatenated, renumbered for :func:`_walk_tables`.

    Each forest's node and leaf ids are shifted past those of the forests
    before it.  With I internal nodes in all, internal node i stays i and
    leaf l becomes I + l, above every internal node.  The references are
    int32 like the forests' own ids; a table of 2**31 nodes would take over
    30 GB.
    """
    n_internal = np.cumsum([0] + [f.feature.size for f in forests])
    n_leaves = np.cumsum([0] + [f.counts.shape[0] for f in forests])

    def renumbered(refs, f):
        return np.where(refs >= 0, refs + n_internal[f], n_internal[-1] + n_leaves[f] + ~refs)

    children = [renumbered(forest.children, f) for f, forest in enumerate(forests)]
    roots = np.stack([renumbered(forest.roots, f) for f, forest in enumerate(forests)])
    return np.concatenate(children, dtype=np.int32), roots


def _walk_tables(feature, threshold, children, n_leaves: int):
    """Walk tables over the internal nodes and the leaves, for :func:`_route_leaves`.

    ``feature`` and ``threshold`` hold I internal nodes and ``children`` their
    references as :func:`_walk_refs` renumbers them.  The tables are intp
    ``feature``, float64 ``threshold`` and intp ``children`` over I + n_leaves
    nodes, 32 bytes a node; node I + l is leaf l, with feature 0, threshold
    +inf and both children pointing to itself, so a walk that reaches a leaf
    stays there.  Returned with I as ``(feature, threshold, children, I)``.

    A child numbered at or below its parent would let a walk loop or miss its
    leaf, so it raises :class:`ModelFormatError` here; with every child above
    its parent, each walk reaches its leaf within I steps.
    """
    n_internal = feature.size
    nodes = n_internal + n_leaves
    below = np.flatnonzero(np.minimum(children[0::2], children[1::2]) <= np.arange(n_internal))
    if below.size:
        raise ModelFormatError(
            f"node {below[0]} has a child numbered at or below it: "
            "the node table has a cycle or a child numbered below its parent"
        )
    walk_children = np.empty(2 * nodes, dtype=np.intp)
    walk_children[:children.size] = children
    leaves = np.arange(n_internal, nodes)
    walk_children[children.size::2] = leaves
    walk_children[children.size + 1::2] = leaves
    walk_feature = np.zeros(nodes, dtype=np.intp)
    walk_feature[:n_internal] = feature
    walk_threshold = np.full(nodes, np.inf)
    walk_threshold[:n_internal] = threshold
    return walk_feature, walk_threshold, walk_children, n_internal


def _route_leaves(tables, X, rows, refs) -> np.ndarray:
    """The leaf that row ``rows[p]`` of X reaches from reference ``refs[p]``, per position p.

    ``tables`` are :func:`_walk_tables`' and the references node ids in them.
    Each step moves every position on node i to ``children[2i + go_left]``,
    with ``go_left = flat[row * m + feature[i]] <= threshold[i]`` read from
    ``flat = X.ravel()``.  That is 8 passes over the positions: gather the
    feature, add the row offset, gather the value, gather the threshold,
    compare, double, add, and gather the child.  A position on a leaf (an id
    of I or more) reads feature 0 and threshold +inf and stays, so the step
    needs no clipped reads.  Every second step, once half of the positions
    walked have finished, their leaves are written out and they are dropped.
    A call holds about 8 arrays of 8 bytes per position beside its output.
    """
    feature, threshold, children, n_internal = tables
    flat = X.ravel()
    at = np.array(refs, dtype=np.intp)
    leaves = np.empty_like(at)
    pos = np.arange(at.size)
    row_start = rows * X.shape[1]
    for step in itertools.count():
        if step % 2 == 0:
            done = at >= n_internal
            n_done = np.count_nonzero(done)
            if 2 * n_done >= at.size:
                leaves[pos] = at
                if n_done == at.size:
                    return leaves - n_internal
                live = np.flatnonzero(~done)
                pos, at, row_start = pos.take(live), at.take(live), row_start.take(live)
        cell = feature.take(at)
        cell += row_start
        go_left = flat.take(cell) <= threshold.take(at)
        at <<= 1
        at += go_left
        at = children.take(at)


def _forest_tables(forest: ForestModel):
    """The forest's walk tables (:func:`_walk_tables`) and its (T,) root ids in them."""
    children, roots = forest.walk_refs
    return _walk_tables(forest.feature, forest.threshold, children, forest.counts.shape[0]), roots


def _tree_leaves(tables, roots, X: np.ndarray) -> np.ndarray:
    """The leaf each row of X reaches from each root, shape (n, len(roots))."""
    n, T = X.shape[0], roots.size
    return _route_leaves(tables, X, np.repeat(np.arange(n), T), np.tile(roots, n)).reshape(n, T)


def _forest_leaves(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """The leaf each row of X reaches in each tree, shape (n, T)."""
    return _tree_leaves(*_forest_tables(forest), X)


def routed_tree_dists(forests: list[ForestModel], X, rows, which) -> np.ndarray:
    """Per-tree class distributions of row ``rows[i]`` of X under forest
    ``forests[which[i]]``, shape (len(rows), T, C).

    The forests share T, C and their feature count.  All positions are
    routed in one pass over the forests' node tables concatenated, each
    forest's node and leaf ids shifted past those of the forests before it,
    and expanded once into walk tables (:func:`_walk_tables`), which refuse a
    malformed table before any position walks.
    """
    first = forests[0]
    X = _inputs(first, X)
    T, C = first.n_trees, first.num_classes
    if any((f.n_trees, f.num_classes, f.n_features) != (T, C, first.n_features) for f in forests):
        raise DimensionError("forests routed together need equal trees, classes and features")
    children, roots = _walk_refs(forests)
    tables = _walk_tables(
        np.concatenate([f.feature for f in forests]),
        np.concatenate([f.threshold for f in forests]),
        children,
        sum(f.counts.shape[0] for f in forests),
    )
    leaves = _route_leaves(tables, X, np.repeat(rows, T), roots.take(which, axis=0).ravel())
    dist = np.concatenate([f.dist for f in forests])
    return dist.take(leaves, axis=0).reshape(len(rows), T, C)


def class_vectors_batch(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """Class vectors for each row of X under the forest's weights, shape (n, C).

    The forest's walk tables (:func:`_walk_tables`, 32 bytes per node and
    leaf) are expanded once per call from its cached ``walk_refs`` and freed
    on return.  Rows are then routed and weighted ``_BLOCK`` at a time, so the
    routing temporaries and the (rows, T, C) leaf distributions stay one
    block's size.  On the largest forest of the seed-7 predict-multiclass
    model (17,332 nodes and leaves, 50 trees, 8 classes) a call on its
    4096-row query peaks at 2.9 MB (tracemalloc): 0.55 MB of tables, 0.26 MB
    of output and one block's temporaries.  Over its 4 forests, blocks of
    1024 and 2048 rows timed within noise of 512 (paired median ratios 0.99
    and 1.00 over 30 rounds), and 4096, 256 and 128 rows 3.5%, 11% and 29%
    slower; no warm call took a minor page fault at any of these sizes.
    """
    X = _inputs(forest, X)
    out = np.empty((X.shape[0], forest.num_classes))
    tables, roots = _forest_tables(forest)
    for start in range(0, X.shape[0], _BLOCK):
        rows = slice(start, start + _BLOCK)
        leaves = _tree_leaves(tables, roots, X[rows])
        out[rows] = np.einsum("ntc,t->nc", forest.dist.take(leaves, axis=0), forest.weights)
    return out

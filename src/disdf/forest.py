"""Forests of decision trees in one compact node table, with simplex weights."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import Dataset
from .errors import BadCellError, DataError, DimensionError, ModelFormatError
from .tree import RANDOM_SPLIT, TREE_KINDS, TreeParams, grow_trees

SIMPLEX_TOL = 1e-6
# rows that class_vectors_batch routes and weighs at a time
_BLOCK = 512


def uniform_weights(n_trees: int) -> np.ndarray:
    return np.full(n_trees, 1.0 / n_trees)


def check_weights(w, n_trees: int) -> np.ndarray:
    """Validate a weight vector: right length, finite, non-negative, sums to one."""
    if n_trees < 1:
        raise ValueError(f"a forest needs at least one tree, got {n_trees}")
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

    Only internal nodes have rows in ``feature`` and ``threshold``; internal
    node i sends an input x left when ``x[feature[i]] <= threshold[i]`` (a
    tie goes left).  The trees' shape is ``is_node``, one bit per reference
    in breadth-first order: the T roots, then each internal node's (left,
    right) children, True for an internal node and False for a leaf.  Read
    in that order, the references number the internal nodes 0, 1, 2, ...
    and the leaves 0, 1, 2, ..., so a node's id is its rank among the True
    bits and a leaf's its rank among the False ones, and internal node i's
    children are references T + 2i and T + 2i + 1.  This is the level-order
    succinct tree of Jacobson ("Space-efficient static trees and graphs",
    FOCS 1989).  Leaf l's training rows per class are ``counts[l]``.
    """

    feature: np.ndarray  # (I,) int32 split features
    threshold: np.ndarray  # (I,) float64
    is_node: np.ndarray  # (T + 2I,) bool, one bit per reference
    counts: np.ndarray  # (T + I, C) uint32 training rows per leaf and class
    weights: np.ndarray  # (T,) float64 on the unit simplex
    kind: str
    n_features: int

    def __post_init__(self):
        self.weights = check_weights(self.weights, self.n_trees)

    @property
    def n_trees(self) -> int:
        return self.is_node.size - 2 * self.feature.size

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
        """The walker's children and roots (:func:`_walk_refs`), once per
        forest, after :func:`check_table` has passed its table.  Every
        deploy route reads them, so no forest is routed unchecked; a refusal
        is not cached and is raised again on the next read."""
        check_table(self)
        children, roots = _walk_refs([self])
        return children, roots[0]

    def with_weights(self, w) -> "ForestModel":
        return replace(self, weights=w)


def check_table(forest: ForestModel) -> None:
    """Refuse a forest whose node table could hang, misroute or index out of bounds.

    This is the one statement of a table's rules, for the breadth-first bits
    of :class:`ForestModel` (Jacobson, FOCS 1989).  ``feature`` and
    ``threshold`` are two 1-D arrays of one length I, ``is_node`` a 1-D bool
    array and ``counts`` a 2-D array of a row per leaf.  The bits number
    T + 2I, as ``n_trees`` is defined, and ``ForestModel`` has refused
    T < 1.  Exactly I of them are set, so there are T + I leaves, and the
    j-th set bit sits before position T + 2j, where internal node j's
    children start, so every child is numbered above its parent and a walk
    reaches its leaf within I steps.  Every reference is then in range and
    each node and leaf referenced exactly once by construction.  Split
    features lie in ``[0, n_features)``, thresholds are finite and no leaf
    is empty.  It runs once per forest, when :attr:`ForestModel.walk_refs`
    is first read, as ``load_model`` does for each forest it loads; a table
    that :func:`train_forests` grows keeps the rules by construction.
    Raises :class:`ModelFormatError`.
    """

    def bad(what: str):
        raise ModelFormatError(f"malformed forest table: {what}")

    feature, is_node = forest.feature, forest.is_node
    if feature.ndim != 1 or forest.threshold.shape != feature.shape:
        bad("feature and threshold are not 1-D arrays of one length")
    if is_node.ndim != 1 or is_node.dtype != bool:
        bad("is_node is not a 1-D bool array")
    nodes = np.flatnonzero(is_node)
    if nodes.size != feature.size:
        bad(f"{nodes.size} bits mark internal nodes, for {feature.size} split features")
    if forest.counts.ndim != 2 or forest.counts.shape[0] != is_node.size - nodes.size:
        bad(f"counts is not a 2-D array of {is_node.size - nodes.size} leaf rows")
    if np.any(nodes >= forest.n_trees + 2 * np.arange(nodes.size)):
        bad("an internal child id is not greater than its parent's id")
    if np.any(feature < 0) or np.any(feature >= forest.n_features):
        bad(f"a split feature is outside [0, {forest.n_features})")
    # a NaN threshold would send every input right
    if not np.isfinite(forest.threshold).all():
        bad("a split threshold is not finite")
    if not forest.counts.any(axis=1).all():
        bad("a leaf holds no rows")


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
    however many forests are grown.  Refuses, before growing any tree, fewer
    than one tree, an unknown kind (``ValueError``), unpaired kinds, row
    sets and generators (``ValueError``) and an empty row set
    (:class:`DataError`); the grower checks none of these again.
    """
    if n_trees < 1:
        raise ValueError(f"need at least one tree, got {n_trees}")
    rows = []
    for kind, idx, rng in zip(kinds, row_sets, rngs, strict=True):
        if kind not in TREE_KINDS:
            raise ValueError(f"unknown tree kind {kind!r}")
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
    """X as a float64 (n, m) matrix of finite values for the forest's m features."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise DimensionError(
            f"expected (n, {forest.n_features}) inputs, got {X.shape}"
        )
    # a NaN would silently go right at every split
    if not np.isfinite(X).all():
        raise BadCellError("features contain NaN or infinite values")
    return X


def _walk_refs(forests: list[ForestModel]) -> tuple[np.ndarray, np.ndarray]:
    """The children and the (len(forests), T) roots of the forests' node
    tables concatenated, numbered for :func:`_walk_tables`.

    With I internal nodes in all, a reference to an internal node is its
    rank among the forests' True bits concatenated, and a reference to a
    leaf I plus its rank among the False ones, so each forest's ids follow
    those of the forests before it and every leaf lies above every internal
    node.  Node i's children are stored right then left, for the walker's
    ``children[2i + go_left]``.  The children are int32, as every walk
    reads them; a table of 2**31 nodes would take over 30 GB.

    This is a pure renumbering and checks nothing: the tables are
    :func:`check_table`'s, through ``ForestModel.walk_refs``, or grown by
    :func:`train_forests`.
    """
    bits = np.concatenate([f.is_node for f in forests])
    n_nodes = np.cumsum(bits)
    refs = np.where(bits, n_nodes - 1, n_nodes[-1] + np.arange(bits.size) - n_nodes)
    is_root = np.concatenate([np.arange(f.is_node.size) < f.n_trees for f in forests])
    children = refs[~is_root].reshape(-1, 2)[:, ::-1].ravel().astype(np.int32)
    return children, refs[is_root].reshape(len(forests), -1)


def _walk_tables(forests: list[ForestModel], children: np.ndarray):
    """Walk tables over the forests' internal nodes and leaves, for :func:`_route_leaves`.

    ``children`` are the references of the forests' I internal nodes in all,
    as :func:`_walk_refs` renumbers them.  The tables are intp
    ``feature``, float64 ``threshold`` and intp ``children`` over the nodes
    and leaves, 32 bytes a node; node I + l is leaf l, with feature 0,
    threshold +inf and both children pointing to itself, so a walk that
    reaches a leaf stays there.  Returned with I as
    ``(feature, threshold, children, I)``.  This is a pure expansion and
    checks nothing.
    """
    n_internal = children.size // 2
    nodes = n_internal + sum(f.counts.shape[0] for f in forests)
    walk_children = np.empty(2 * nodes, dtype=np.intp)
    walk_children[:children.size] = children
    leaves = np.arange(n_internal, nodes)
    walk_children[children.size::2] = leaves
    walk_children[children.size + 1::2] = leaves
    walk_feature = np.zeros(nodes, dtype=np.intp)
    np.concatenate([f.feature for f in forests], out=walk_feature[:n_internal])
    walk_threshold = np.full(nodes, np.inf)
    np.concatenate([f.threshold for f in forests], out=walk_threshold[:n_internal])
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


def routed_tree_dists(forests: list[ForestModel], X, rows, which) -> np.ndarray:
    """Per-tree class distributions of row ``rows[i]`` of X under forest
    ``forests[which[i]]``, shape (len(rows), T, C).

    The caller passes forests of equal T, C and feature count m, grown by
    :func:`train_forests`, and X as a float64 (n, m) matrix, as
    ``cascade._fit_slots`` does with the forests of one call and their
    Dataset's features; none of this, the tables' rules included, is
    checked here.  All positions are routed in one pass over the forests'
    node tables concatenated, each forest's node and leaf ids shifted past
    those of the forests before it (:func:`_walk_refs`), and expanded once
    into walk tables (:func:`_walk_tables`).
    """
    T, C = forests[0].n_trees, forests[0].num_classes
    children, roots = _walk_refs(forests)
    tables = _walk_tables(forests, children)
    leaves = _route_leaves(tables, X, np.repeat(rows, T), roots.take(which, axis=0).ravel())
    dist = np.concatenate([f.dist for f in forests])
    return dist.take(leaves, axis=0).reshape(len(rows), T, C)


def class_vectors_batch(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """Class vectors for each row of X under the forest's weights, shape (n, C).

    X must hold finite values (:class:`BadCellError`).  The forest's table
    is checked once, when its ``walk_refs`` are first cached
    (:func:`check_table`).  Its walk tables (:func:`_walk_tables`, 32
    bytes per node and leaf) are expanded from them once per call and freed
    on return.  Rows are then routed and weighted ``_BLOCK`` at a time, so
    the routing temporaries and the (rows, T, C) leaf distributions stay one
    block's size.  On the largest forest of the seed-7 predict-multiclass
    model (17,332 nodes and leaves, 50 trees, 8 classes) a call on its
    4096-row query peaks at 2.9 MB (tracemalloc): 0.55 MB of tables, 0.26 MB
    of output and one block's temporaries.  Over its 4 forests, blocks of
    1024 and 2048 rows timed within noise of 512 (paired median ratios 0.99
    and 1.00 over 30 rounds), and 4096, 256 and 128 rows 3.5%, 11% and 29%
    slower; no warm call took a minor page fault at any of these sizes.
    """
    X = _inputs(forest, X)
    children, roots = forest.walk_refs
    out = np.empty((X.shape[0], forest.num_classes))
    tables = _walk_tables([forest], children)
    for start in range(0, X.shape[0], _BLOCK):
        block = X[start : start + _BLOCK]
        n, T = block.shape[0], roots.size
        leaves = _route_leaves(tables, block, np.repeat(np.arange(n), T), np.tile(roots, n))
        # no name holds a block's (n, T, C) distributions into the next block
        out[start : start + n] = np.einsum(
            "ntc,t->nc", forest.dist.take(leaves.reshape(n, T), axis=0), forest.weights
        )
    return out

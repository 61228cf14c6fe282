"""Forests of decision trees in one compact node table, with simplex weights."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import Dataset
from .errors import DataError, DimensionError, ModelFormatError
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
        """``children`` and ``roots`` renumbered for :func:`_walk_tables` and checked,
        once per forest (:func:`_walk_refs`)."""
        children, roots = _walk_refs([self])
        return children, roots[0]

    def with_weights(self, w) -> "ForestModel":
        return replace(self, weights=w)


def check_table(feature, threshold, children, counts, roots, n_features: int) -> None:
    """Refuse a node table that could hang, misroute or index out of bounds.

    The arrays are :class:`ForestModel`'s, with its dtypes and shapes.  These
    are the table's rules: at least one tree, every reference in range, every
    internal child numbered above its parent, each node and leaf referenced
    exactly once, split features in ``[0, n_features)``, finite thresholds
    and no empty leaf.  ``serialize.load_model`` runs it on each forest it
    reads; a table that :func:`train_forests` grows keeps them by
    construction.  Raises :class:`ModelFormatError`.
    """

    def bad(what: str):
        raise ModelFormatError(f"malformed forest table: {what}")

    n_internal, n_leaves = feature.size, counts.shape[0]
    if roots.size == 0:
        bad("a forest needs at least one tree")
    refs = np.concatenate([roots, children])
    if np.any(refs >= n_internal) or np.any(refs < -n_leaves):
        bad("a node or leaf id in roots or children is out of range")
    parent = np.arange(children.size) // 2
    if np.any((children >= 0) & (children <= parent)):
        bad("an internal child id is not greater than its parent's id")
    # with ids increasing down every path, one reference per node and leaf
    # makes each tree a proper binary tree hanging from exactly one root
    nodes = np.bincount(refs[refs >= 0], minlength=n_internal)
    leaves = np.bincount(~refs[refs < 0], minlength=n_leaves)
    if np.any(nodes != 1) or np.any(leaves != 1):
        bad("a node or leaf is not referenced exactly once by roots and children")
    if np.any(feature < 0) or np.any(feature >= n_features):
        bad(f"a split feature is outside [0, {n_features})")
    # a NaN threshold would send every input right
    if not np.isfinite(threshold).all():
        bad("a split threshold is not finite")
    if not counts.any(axis=1).all():
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

    The walker's two rules are checked here, each refusal a
    :class:`ModelFormatError`: every root and child id is in range, inside
    its own forest's nodes and leaves, so every walk reads inside the walk
    tables; and every child is numbered above its parent, as one at or
    below it would let a walk loop or miss its leaf, so each walk reaches
    its leaf within I steps.  ``ForestModel.walk_refs`` caches the
    result, so :func:`class_vectors_batch` checks a forest once, while a
    refusal is not cached and is raised again on the next call.
    :func:`routed_tree_dists` calls this on every call.  The other rules of
    a table are :func:`check_table`'s, which runs when a model is loaded.
    """
    for f, forest in enumerate(forests):
        low, high = -forest.counts.shape[0], forest.feature.size
        for refs in (forest.roots, forest.children):
            if refs.size and (refs.min() < low or refs.max() >= high):
                raise ModelFormatError(
                    f"forest {f}: a root or child id is out of range for {high} "
                    f"internal nodes and {-low} leaves"
                )
    n_internal = np.cumsum([0] + [f.feature.size for f in forests])
    n_leaves = np.cumsum([0] + [f.counts.shape[0] for f in forests])

    def renumbered(refs, f):
        return np.where(refs >= 0, refs + n_internal[f], n_internal[-1] + n_leaves[f] + ~refs)

    children = [renumbered(forest.children, f) for f, forest in enumerate(forests)]
    children = np.concatenate(children, dtype=np.int32)
    roots = np.stack([renumbered(forest.roots, f) for f, forest in enumerate(forests)])
    below = np.flatnonzero(np.minimum(children[0::2], children[1::2]) <= np.arange(n_internal[-1]))
    if below.size:
        raise ModelFormatError(
            f"node {below[0]} has a child numbered at or below it: "
            "the node table has a cycle or a child numbered below its parent"
        )
    return children, roots


def _walk_tables(forests: list[ForestModel], children: np.ndarray):
    """Walk tables over the forests' internal nodes and leaves, for :func:`_route_leaves`.

    ``children`` are the references of the forests' I internal nodes in all,
    as :func:`_walk_refs` renumbers and checks them.  The tables are intp
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

    The caller passes forests of equal T, C and feature count m and X as a
    float64 (n, m) matrix, as ``cascade._fit_slots`` does with the forests of
    one :func:`train_forests` call and their Dataset's features; none of
    this is checked again here.  All positions are
    routed in one pass over the forests' node tables concatenated, each
    forest's node and leaf ids shifted past those of the forests before it,
    and expanded once into walk tables (:func:`_walk_tables`).  The
    concatenated table is checked on every call by :func:`_walk_refs`,
    before any position walks, so a malformed forest is refused even when
    no row is routed through it.
    """
    T, C = forests[0].n_trees, forests[0].num_classes
    children, roots = _walk_refs(forests)
    tables = _walk_tables(forests, children)
    leaves = _route_leaves(tables, X, np.repeat(rows, T), roots.take(which, axis=0).ravel())
    dist = np.concatenate([f.dist for f in forests])
    return dist.take(leaves, axis=0).reshape(len(rows), T, C)


def class_vectors_batch(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """Class vectors for each row of X under the forest's weights, shape (n, C).

    The forest's table is checked once, when its ``walk_refs`` are first
    cached (:func:`_walk_refs`).  Its walk tables (:func:`_walk_tables`, 32
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
    out = np.empty((X.shape[0], forest.num_classes))
    children, roots = forest.walk_refs
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

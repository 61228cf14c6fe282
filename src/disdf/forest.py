"""Forests of decision trees in one compact node table, with simplex weights."""

from __future__ import annotations

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
        """``children`` and ``roots`` as :func:`_route_leaves` reads them (:func:`_walk_refs`)."""
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
    tables concatenated, as :func:`_route_leaves` reads them.

    Each forest's node and leaf ids are shifted past those of the forests
    before it.  With I internal nodes in all, internal node i stays i and
    leaf l becomes I + l, above every internal node.  A -1 after the
    children is the entry that finished positions read.  The references
    are int32 like the forests' own ids; a table of 2**31 nodes would take
    over 30 GB.
    """
    n_internal = np.cumsum([0] + [f.feature.size for f in forests])
    n_leaves = np.cumsum([0] + [f.counts.shape[0] for f in forests])

    def renumbered(refs, f):
        return np.where(refs >= 0, refs + n_internal[f], n_internal[-1] + n_leaves[f] + ~refs)

    children = [renumbered(forest.children, f) for f, forest in enumerate(forests)]
    roots = np.stack([renumbered(forest.roots, f) for f, forest in enumerate(forests)])
    return np.concatenate(children + [[-1]], dtype=np.int32), roots


def _route_leaves(feature, threshold, children, X, rows, refs) -> np.ndarray:
    """The leaf that row ``rows[p]`` of X reaches from reference ``refs[p]``, per position p.

    ``feature``, ``threshold`` and the references are a node table of I
    internal nodes as :func:`_walk_refs` gives it.  Each step moves every
    position on internal node i to ``children[2i + go_left]``, reading its
    split value from ``X.ravel()`` at ``row * m + feature[i]``.  A position
    that has reached a leaf (an id of I or more) keeps walking: clipped
    indices make it read node I - 1's split and the -1 after the children,
    and ``max`` with its own id keeps it on its leaf.  ``max`` moves every
    other position, as a child's id is above its parent's.  Finished
    positions are dropped from the walk, and their leaves written out, once
    half of the positions walked have finished.  A table whose walk needs
    more than I steps, the most any root-to-leaf path can take, has a cycle
    or a child numbered below its parent, and raises
    :class:`ModelFormatError` instead of looping forever.
    """
    flat = X.ravel()
    n_internal = feature.size
    # leaves shares at's buffer until the first drop replaces at
    leaves = at = np.array(refs, dtype=np.intp)
    pos = np.arange(at.size)
    row_start = rows * X.shape[1]
    for _ in range(n_internal + 1):
        if 2 * np.count_nonzero(at >= n_internal) >= at.size:
            leaves[pos] = at
            live = np.flatnonzero(at < n_internal)
            pos, at, row_start = pos.take(live), at.take(live), row_start.take(live)
            if not at.size:
                return leaves - n_internal
        go_left = (
            flat.take(row_start + feature.take(at, mode="clip"))
            <= threshold.take(at, mode="clip")
        )
        child = at << 1
        child += go_left
        np.maximum(children.take(child, mode="clip"), at, out=at)
    raise ModelFormatError(
        f"routing took more than {n_internal} steps: "
        "the node table has a cycle or a child numbered below its parent"
    )


def _forest_leaves(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """The leaf each row of X reaches in each tree, shape (n, T)."""
    n, T = X.shape[0], forest.n_trees
    children, roots = forest.walk_refs
    rows, refs = np.repeat(np.arange(n), T), np.tile(roots, n)
    return _route_leaves(forest.feature, forest.threshold, children, X, rows, refs).reshape(n, T)


def routed_tree_dists(forests: list[ForestModel], X, rows, which) -> np.ndarray:
    """Per-tree class distributions of row ``rows[i]`` of X under forest
    ``forests[which[i]]``, shape (len(rows), T, C).

    The forests share T, C and their feature count.  All positions are
    routed in one pass over the forests' node tables concatenated, each
    forest's node and leaf ids shifted past those of the forests before it.
    """
    first = forests[0]
    X = _inputs(first, X)
    T, C = first.n_trees, first.num_classes
    if any((f.n_trees, f.num_classes, f.n_features) != (T, C, first.n_features) for f in forests):
        raise DimensionError("forests routed together need equal trees, classes and features")
    children, roots = _walk_refs(forests)
    leaves = _route_leaves(
        np.concatenate([f.feature for f in forests]),
        np.concatenate([f.threshold for f in forests]),
        children,
        X,
        np.repeat(rows, T),
        roots.take(which, axis=0).ravel(),
    )
    dist = np.concatenate([f.dist for f in forests])
    return dist.take(leaves, axis=0).reshape(len(rows), T, C)


def class_vectors_batch(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """Class vectors for each row of X under the forest's weights, shape (n, C).

    Rows are routed and weighted ``_BLOCK`` at a time, so the routing
    temporaries and the (rows, T, C) leaf distributions stay one block's size.
    Blocks of routing matter too: at 4096 rows x 50 trees, routing all rows at
    once and only weighting in blocks had the allocator map and fault in the
    routing temporaries afresh on every call (about 13,000 minor page faults
    per warm predict job, against none, and 42% slower).  Blocks of 1024 rows
    timed within noise of 512, and 256 and 128 rows 13% and 22% slower.
    """
    X = _inputs(forest, X)
    out = np.empty((X.shape[0], forest.num_classes))
    for start in range(0, X.shape[0], _BLOCK):
        rows = slice(start, start + _BLOCK)
        leaves = _forest_leaves(forest, X[rows])
        out[rows] = np.einsum("ntc,t->nc", forest.dist.take(leaves, axis=0), forest.weights)
    return out

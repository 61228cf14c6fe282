"""Decision-tree induction: all trees of a forest grown together, depth by depth.

``random-split-search`` samples ceil(sqrt(m)) distinct candidate features per
node and takes the best Gini split over midpoints between consecutive
distinct values; the first candidate drawn, then the lowest threshold, wins a
tie.  ``completely-random`` draws the split feature uniformly among features
that vary at the node and the threshold uniformly in [min, max) of its values.

The frontier is one array of (node, row) positions grouped by node, over the
open nodes of every tree at the current depth, so each depth costs a handful
of array operations for the whole forest.  Node and leaf ids are numbered
breadth-first across the forest (every node at depth d, tree by tree, before
any at depth d + 1), so a child's id exceeds its parent's.  One generator
serves the forest: per depth, one block of draws for the open nodes in
frontier order, (nodes, m) uniforms whose argsort orders each
random-split-search node's candidates, or (nodes, 2) uniforms that pick each
completely-random node's feature and threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError

RANDOM_SPLIT = "random-split-search"
COMPLETELY_RANDOM = "completely-random"
TREE_KINDS = (RANDOM_SPLIT, COMPLETELY_RANDOM)


@dataclass(frozen=True)
class TreeParams:
    min_leaf: int = 1
    max_depth: int | None = None


def grow_trees(
    ds: Dataset,
    kind: str,
    params: TreeParams,
    rows: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ...]:
    """Grow tree t on rows ``rows[t]`` of ``ds`` for every t; return the table.

    ``rows`` is a (T, n_rows) index array, repeats allowed (a bootstrap).  The
    result is ``(feature, threshold, children, dist, roots)``, the node table
    of :class:`~disdf.forest.ForestModel`.  A node becomes a leaf when it is
    pure, has fewer than ``min_leaf`` rows, is at depth ``max_depth``, or no
    candidate feature gives a split with rows on both sides.  Leaf
    distributions are class-frequency vectors.
    """
    if kind not in TREE_KINDS:
        raise ValueError(f"unknown tree kind {kind!r}")
    T, n_rows = rows.shape
    if n_rows == 0:
        raise DataError("cannot train a tree on an empty sample view")
    X, y, C = ds.features, ds.labels, ds.num_classes
    m = X.shape[1]
    values = X.ravel()
    rank = _dense_ranks(X) if kind == RANDOM_SPLIT else None

    # the frontier: position i is training row sample[i] in frontier node node[i]
    sample = rows.ravel()
    node = np.repeat(np.arange(T), n_rows)
    n_nodes = T
    features, thresholds, dists, refs = [], [], [], []
    n_internal = n_leaves = depth = 0
    while n_nodes:
        counts = np.bincount(node * C + y[sample], minlength=n_nodes * C)
        counts = counts.reshape(n_nodes, C)
        size = counts.sum(axis=1)
        open_ = (size >= params.min_leaf) & ((counts > 0).sum(axis=1) > 1)
        if m == 0 or (params.max_depth is not None and depth >= params.max_depth):
            open_[:] = False

        # open nodes renumbered 0..S-1; their positions keep the node grouping
        at = open_[node]
        s_sample = sample[at]
        s_node = (np.cumsum(open_) - 1)[node[at]]
        s_size = size[open_]
        s_start = np.cumsum(s_size) - s_size
        if not s_size.size:
            f, thr, found = np.zeros(0, np.intp), np.zeros(0), np.zeros(0, bool)
        elif kind == RANDOM_SPLIT:
            f, thr, found = _rss_splits(
                values, m, y, rank, counts[open_], s_sample, s_node, s_start, rng
            )
        else:
            f, thr, found = _cr_splits(X, s_sample, s_start, rng)
        go_left = values.take(s_sample * m + f[s_node]) <= thr[s_node]
        n_left = np.bincount(s_node[go_left], minlength=s_size.size)
        # a split whose rows all fall on one side (floating-point edge cases) is a leaf
        found &= (n_left > 0) & (n_left < s_size)

        split = np.zeros(n_nodes, dtype=bool)
        split[open_] = found
        ids = np.cumsum(split) - 1
        leaf_ids = np.cumsum(~split) - 1
        refs.append(np.where(split, n_internal + ids, ~(n_leaves + leaf_ids)))
        features.append(f[found])
        thresholds.append(thr[found])
        dists.append(counts[~split] / size[~split, None])
        n_internal += int(ids[-1]) + 1
        n_leaves += int(leaf_ids[-1]) + 1

        # next frontier: split node k's left child is node 2k, its right 2k + 1
        move = found[s_node]
        new_node = 2 * (np.cumsum(found) - 1)[s_node[move]] + ~go_left[move]
        order = np.argsort(new_node, kind="stable")
        sample = s_sample[move][order]
        node = new_node[order]
        n_nodes = 2 * int(found.sum())
        depth += 1

    # refs at depth d + 1 come in (left, right) pairs per internal node at
    # depth d, which stores them right then left
    children = [r.reshape(-1, 2)[:, ::-1].ravel() for r in refs[1:]]
    return (
        np.concatenate(features).astype(np.int32),
        np.concatenate(thresholds),
        np.concatenate(children or [np.zeros(0)]).astype(np.int32),
        np.vstack(dists),
        refs[0].astype(np.int32),
    )


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Per column, the rank of each value among the column's distinct values."""
    order = np.argsort(X, axis=0, kind="stable")
    ordered = np.take_along_axis(X, order, axis=0)
    steps = np.zeros(X.shape, dtype=np.int64)
    steps[1:] = ordered[1:] != ordered[:-1]
    rank = np.empty_like(steps)
    np.put_along_axis(rank, order, np.cumsum(steps, axis=0), axis=0)
    return rank


def _rss_splits(values, m, y, rank, counts, sample, node, start, rng):
    """Best Gini split per open node over its ceil(sqrt(m)) candidate features.

    ``values`` is the row-major feature matrix flattened, ``counts`` the open
    nodes' class counts, ``sample``/``node`` their positions grouped by node
    and ``start`` each node's first position.  Returns (feature, threshold,
    found) per node.  All candidates are scored at once: one segmented sort
    by (candidate, node, value rank), then per class a cumulative count that
    gives every cut between distinct values its Gini score.
    """
    S, C = counts.shape
    N = sample.size
    k = math.ceil(math.sqrt(m))
    candidates = np.argsort(rng.random((S, m)), axis=1)[:, :k]
    # position j*N + i is position i of the frontier scored on candidate j
    flat = (sample * m + candidates[node].T).ravel()
    group = (np.arange(k)[:, None] * S + node).ravel()
    key = group * rank.shape[0] + rank.ravel().take(flat)  # ranks < n_rows
    order = key.argsort()
    key = key.take(order)
    # the sort only reorders within groups, so group[order] == group
    cut = np.flatnonzero((key[1:] != key[:-1]) & (group[1:] == group[:-1]))
    feature = np.zeros(S, dtype=np.intp)
    threshold = np.zeros(S)
    found = np.zeros(S, dtype=bool)
    if not cut.size:
        return feature, threshold, found

    cut_group = group.take(cut)
    del key, group  # the largest temporaries; the class scan below allocates more
    cut_node = cut_group % S
    first = cut_group // S * N + start.take(cut_node)
    ranked = y.take(sample.take(order % N))
    # the squared class counts left and right of each cut, summed over classes
    left_sq = np.zeros(cut.size, dtype=np.int64)
    right_sq = np.zeros(cut.size, dtype=np.int64)
    cum = np.zeros(flat.size + 1, dtype=np.int64)
    for c in range(C):
        np.cumsum(ranked == c, out=cum[1:])
        left = cum.take(cut + 1) - cum.take(first)
        right = counts[:, c].take(cut_node) - left
        left_sq += left * left
        right_sq += right * right
    n = counts.sum(axis=1).take(cut_node)
    n_left = (cut + 1 - first).astype(np.float64)
    n_right = n - n_left
    gini_left = 1.0 - left_sq / n_left**2
    gini_right = 1.0 - right_sq / n_right**2
    score = (n_left * gini_left + n_right * gini_right) / n

    # per node the lowest score; a stable sort keeps the first candidate,
    # then the lowest cut, among equal scores
    by_node = np.lexsort((score, cut_node))
    node_sorted = cut_node.take(by_node)
    new_run = np.ones(cut.size, dtype=bool)
    np.not_equal(node_sorted[1:], node_sorted[:-1], out=new_run[1:])
    nodes, pos = node_sorted[new_run], cut.take(by_node[new_run])
    lo, hi = flat.take(order.take(pos)), flat.take(order.take(pos + 1))
    feature[nodes] = lo % m
    threshold[nodes] = 0.5 * (values.take(lo) + values.take(hi))
    found[nodes] = True
    return feature, threshold, found


def _cr_splits(X, sample, start, rng):
    """A completely-random split per open node: (feature, threshold, found)."""
    values = X[sample]
    lo = np.minimum.reduceat(values, start, axis=0)
    hi = np.maximum.reduceat(values, start, axis=0)
    varying = hi > lo
    n_varying = varying.sum(axis=1)
    u = rng.random((start.size, 2))
    pick = np.minimum((u[:, 0] * n_varying).astype(np.intp), n_varying - 1)
    feature = np.argmax(np.cumsum(varying, axis=1) > pick[:, None], axis=1)
    nodes = np.arange(start.size)
    a, b = lo[nodes, feature], hi[nodes, feature]
    threshold = a + (b - a) * u[:, 1]
    # a uniform draw in [lo, hi) keeps both children non-empty
    threshold = np.where(threshold >= b, np.nextafter(b, a), threshold)
    return feature, threshold, n_varying > 0

"""Decision-tree induction: the trees of several forests grown together, depth by depth.

``random-split-search`` samples ceil(sqrt(m)) distinct candidate features per
node and takes the best Gini split over midpoints between consecutive
distinct values; the first candidate drawn, then the lowest threshold, wins a
tie.  ``completely-random`` draws the split feature uniformly among features
that vary at the node and the threshold uniformly in [min, max) of its values.

The frontier is one array of (node, row) positions grouped by node, over the
open nodes of every tree of every forest at the current depth, forest by
forest, so each depth costs a handful of array operations for all of them.
Rows are indices into one :class:`~disdf.data.Dataset`, so forests grown on
different rows of it (a cascade slot's fold forests and its refit forest)
share one frontier.  Each forest gets its own node table, with node and leaf
ids numbered breadth-first across that forest (every node at depth d, tree
by tree, before any at depth d + 1), so a child's id exceeds its parent's.
Each forest has its own generator: per depth, it draws one block for its own
open nodes in frontier order, (nodes, m) uniforms whose argsort orders each
random-split-search node's candidates, or (nodes, 2) uniforms that pick each
completely-random node's feature and threshold; a forest with no open nodes
draws nothing.  So a forest's table does not depend on the forests grown
beside it.
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
    rows: list[np.ndarray],
    rngs: list[np.random.Generator],
) -> list[tuple[np.ndarray, ...]]:
    """Grow tree t of forest f on rows ``rows[f][t]`` of ``ds``; one table per forest.

    ``rows[f]`` is a (T_f, n_f) index array, repeats allowed (a bootstrap),
    and ``rngs[f]`` forest f's generator.  Each result is ``(feature,
    threshold, children, dist, roots)``, the node table of
    :class:`~disdf.forest.ForestModel`, and is the same whether the forest
    is grown alone or with others.  A node becomes a leaf when it is pure,
    has fewer than ``min_leaf`` rows, is at depth ``max_depth``, or no
    candidate feature gives a split with rows on both sides.  Leaf
    distributions are class-frequency vectors.
    """
    if kind not in TREE_KINDS:
        raise ValueError(f"unknown tree kind {kind!r}")
    if any(r.shape[1] == 0 for r in rows):
        raise DataError("cannot train a tree on an empty sample view")
    X, y, C = ds.features, ds.labels, ds.num_classes
    m = X.shape[1]
    values = X.ravel()
    rank = _dense_ranks(X) if kind == RANDOM_SPLIT else None
    width = m if kind == RANDOM_SPLIT else 2  # uniforms per open node and depth
    n_trees = [r.shape[0] for r in rows]
    F = len(rows)

    # the frontier: position i is training row sample[i] in frontier node
    # node[i]; frontier node k belongs to forest owner[k], forest by forest
    sample = np.concatenate([r.ravel() for r in rows])
    node = np.repeat(np.arange(sum(n_trees)), np.repeat([r.shape[1] for r in rows], n_trees))
    owner = np.repeat(np.arange(F), n_trees)
    features, thresholds, dists, children = [], [], [], []
    # per depth, the forest of each split node, leaf and child reference
    split_of, leaf_of, child_of = [], [], []
    n_internal = np.zeros(F, dtype=np.int64)
    n_leaves = np.zeros(F, dtype=np.int64)
    depth = 0
    while owner.size:
        n_nodes = owner.size
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
        else:
            # each forest draws one block for its own open nodes, in order
            n_open = np.bincount(owner[open_], minlength=F)
            u = np.concatenate([g.random((k, width)) for g, k in zip(rngs, n_open) if k])
            if kind == RANDOM_SPLIT:
                f, thr, found = _rss_splits(
                    values, m, y, rank, counts[open_], s_sample, s_node, s_start, u
                )
            else:
                f, thr, found = _cr_splits(X, s_sample, s_start, u)
        go_left = values.take(s_sample * m + f[s_node]) <= thr[s_node]
        n_left = np.bincount(s_node[go_left], minlength=s_size.size)
        # a split whose rows all fall on one side (floating-point edge cases) is a leaf
        found &= (n_left > 0) & (n_left < s_size)

        # a forest's ids at this depth follow its ids above: count past the
        # forest's shallower nodes, not past other forests' nodes at this depth
        split = np.zeros(n_nodes, dtype=bool)
        split[open_] = found
        n_split = np.bincount(owner[split], minlength=F)
        n_leaf = np.bincount(owner, minlength=F) - n_split
        ids = np.cumsum(split) - 1 + (n_internal + n_split - np.cumsum(n_split))[owner]
        leaf_ids = np.cumsum(~split) - 1 + (n_leaves + n_leaf - np.cumsum(n_leaf))[owner]
        ref = np.where(split, ids, ~leaf_ids)
        if depth:
            # a depth's refs come in (left, right) pairs per internal node one
            # depth up, which stores them right then left
            children.append(ref.reshape(-1, 2)[:, ::-1].ravel())
            child_of.append(owner)
        else:
            roots = np.split(ref.astype(np.int32), np.cumsum(n_trees)[:-1])
        split_of.append(owner[split])
        leaf_of.append(owner[~split])
        features.append(f[found])
        thresholds.append(thr[found])
        dists.append(counts[~split] / size[~split, None])
        n_internal += n_split
        n_leaves += n_leaf

        # next frontier: split node k's left child is node 2k, its right 2k + 1
        move = found[s_node]
        new_node = 2 * (np.cumsum(found) - 1)[s_node[move]] + ~go_left[move]
        order = np.argsort(new_node, kind="stable")
        sample = s_sample[move][order]
        node = new_node[order]
        owner = np.repeat(owner[split], 2)
        depth += 1

    def by_forest(parts, part_owners, dtype=None):
        """The parts, emptied into one array per forest, each in part order."""
        of = np.concatenate(part_owners)
        flat = np.concatenate(parts, dtype=dtype)
        parts.clear()
        order = np.argsort(of, kind="stable")
        return np.split(flat.take(order, axis=0), np.cumsum(np.bincount(of, minlength=F))[:-1])

    empty = [np.zeros(0, np.intp)]
    return list(zip(
        by_forest(features, split_of, np.int32),
        by_forest(thresholds, split_of),
        by_forest(children or empty, child_of or empty, np.int32),
        by_forest(dists, leaf_of),
        roots,
    ))


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Per column, the rank of each value among the column's distinct values."""
    order = np.argsort(X, axis=0, kind="stable")
    ordered = np.take_along_axis(X, order, axis=0)
    steps = np.zeros(X.shape, dtype=np.int64)
    steps[1:] = ordered[1:] != ordered[:-1]
    rank = np.empty_like(steps)
    np.put_along_axis(rank, order, np.cumsum(steps, axis=0), axis=0)
    return rank


def _rss_splits(values, m, y, rank, counts, sample, node, start, u):
    """Best Gini split per open node over its ceil(sqrt(m)) candidate features.

    ``values`` is the row-major feature matrix flattened, ``counts`` the open
    nodes' class counts, ``sample``/``node`` their positions grouped by node
    and ``start`` each node's first position; row s of the uniforms ``u``
    orders node s's candidates.  Returns (feature, threshold, found) per
    node.  All candidates are scored at once: one segmented sort by
    (candidate, node, value rank), then per class a cumulative count that
    gives every cut between distinct values its Gini score.
    """
    S, C = counts.shape
    N = sample.size
    k = math.ceil(math.sqrt(m))
    candidates = np.argsort(u, axis=1)[:, :k]
    # position j*N + i is position i of the frontier scored on candidate j
    group = (np.arange(k)[:, None] * S + node).ravel()
    key = rank.ravel().take((sample * m + candidates[node].T).ravel())
    key += group * rank.shape[0]  # ranks < n_rows
    order = key.argsort()
    key = key.take(order)
    # the sort only reorders within groups, so group[order] == group; a cut
    # ends the left side of a split between two distinct values of a group
    end = np.flatnonzero((key[1:] != key[:-1]) & (group[1:] == group[:-1])) + 1
    feature = np.zeros(S, dtype=np.intp)
    threshold = np.zeros(S)
    found = np.zeros(S, dtype=bool)
    if not end.size:
        return feature, threshold, found

    cut_group = group.take(end - 1)
    del key, group  # the largest temporaries; the class scan below allocates more
    cut_node = cut_group % S
    first = cut_group // S * N + start.take(cut_node)
    del cut_group
    ranked = y.take(sample.take(order % N))
    # the squared class counts left and right of each cut, summed over classes
    left_sq = np.zeros(end.size, dtype=np.int64)
    right_sq = np.zeros(end.size, dtype=np.int64)
    cum = np.zeros(order.size + 1, dtype=np.int64)
    for c in range(C):
        np.cumsum(ranked == c, out=cum[1:])
        left = cum.take(end) - cum.take(first)
        right = counts[:, c].take(cut_node) - left
        left_sq += left * left
        right_sq += right * right
    del ranked, cum
    n = counts.sum(axis=1).take(cut_node)
    n_left = (end - first).astype(np.float64)
    n_right = n - n_left
    gini_left = 1.0 - left_sq / n_left**2
    gini_right = 1.0 - right_sq / n_right**2
    score = (n_left * gini_left + n_right * gini_right) / n

    # per node the lowest score, then the first cut that reaches it: cuts run
    # candidate by candidate, each by threshold, so the first candidate
    # drawn, then the lowest threshold, wins a tie
    best = np.full(S, np.inf)
    np.minimum.at(best, cut_node, score)
    tied = np.flatnonzero(score == best.take(cut_node))
    pick = np.full(S, end.size)
    np.minimum.at(pick, cut_node.take(tied), tied)
    nodes = np.flatnonzero(pick < end.size)
    # the scored positions either side of each picked cut: candidate j of
    # frontier position i sits at j*N + i
    below, above = order.take(end.take(pick.take(nodes)) + [[-1], [0]])
    best_f = candidates[nodes, below // N]
    feature[nodes] = best_f
    lo = sample.take(below % N) * m + best_f
    hi = sample.take(above % N) * m + best_f
    threshold[nodes] = 0.5 * (values.take(lo) + values.take(hi))
    found[nodes] = True
    return feature, threshold, found


def _cr_splits(X, sample, start, u):
    """A completely-random split per open node: (feature, threshold, found).

    Row s of the uniforms ``u`` picks node s's feature and threshold.
    """
    values = X[sample]
    lo = np.minimum.reduceat(values, start, axis=0)
    hi = np.maximum.reduceat(values, start, axis=0)
    varying = hi > lo
    n_varying = varying.sum(axis=1)
    pick = np.minimum((u[:, 0] * n_varying).astype(np.intp), n_varying - 1)
    feature = np.argmax(np.cumsum(varying, axis=1) > pick[:, None], axis=1)
    nodes = np.arange(start.size)
    a, b = lo[nodes, feature], hi[nodes, feature]
    threshold = a + (b - a) * u[:, 1]
    # a uniform draw in [lo, hi) keeps both children non-empty
    threshold = np.where(threshold >= b, np.nextafter(b, a), threshold)
    return feature, threshold, n_varying > 0

"""Decision-tree induction: the trees of several forests grown together, depth by depth.

``random-split-search`` samples ceil(sqrt(m)) distinct candidate features per
node and takes the best Gini split over midpoints between consecutive
distinct values; the first candidate drawn, then the lowest threshold, wins a
tie.  ``completely-random`` draws the split feature uniformly among features
that vary at the node and the threshold uniformly in [min, max) of its values.
Only a tied column, one in which some value repeats, can be constant at an
open node: the node holds two classes, so two distinct rows, and these differ
in every other column.  So only the tied columns are checked per node, and
the drawn feature is found from the constant ones alone.

The frontier is one array of (node, row) positions grouped by node, over the
open nodes of every tree of every forest at the current depth, forest by
forest, so each depth costs a handful of array operations for all of them.
Each forest has a kind, and the forests are laid out kind-major, every
random-split-search forest before every completely-random one, so a depth's
open nodes of one kind are one contiguous run; each run is scored in chunks
of whole nodes, at most ``SCORE_POSITIONS`` positions each.  Rows are
indices into one :class:`~disdf.data.Dataset`, so forests grown on different
rows of it (a cascade group's fold forests and refit forests) share one
frontier.  Each forest gets its own node table, whose shape is one bit per
frontier node, split or leaf, in the order the frontier meets them: every
node at depth d, tree by tree, before any at depth d + 1, a split node's
children left then right.  That is the breadth-first order in which
:class:`~disdf.forest.ForestModel` numbers its nodes and leaves, so a
child's id exceeds its parent's: Jacobson's level-order succinct tree
("Space-efficient static trees and graphs", FOCS 1989).
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

RANDOM_SPLIT = "random-split-search"
COMPLETELY_RANDOM = "completely-random"
TREE_KINDS = (RANDOM_SPLIT, COMPLETELY_RANDOM)
# positions one split search scores at a time; a larger node is scored alone
SCORE_POSITIONS = 1 << 12


@dataclass(frozen=True)
class TreeParams:
    # the smallest node that may split; a pure node never splits, so 1 and 2
    # grow the same trees
    min_leaf: int = 1
    max_depth: int | None = None


def grow_trees(
    ds: Dataset,
    kinds: list[str],
    params: TreeParams,
    rows: list[np.ndarray],
    rngs: list[np.random.Generator],
) -> list[tuple[np.ndarray, ...]]:
    """Grow tree t of forest f, of kind ``kinds[f]``, on rows ``rows[f][t]`` of ``ds``.

    ``rows[f]`` is a (T_f, n_f) index array, repeats allowed (a bootstrap),
    and ``rngs[f]`` forest f's generator.  Returns one table per forest,
    ``(feature, threshold, is_node, counts)``, the node table of
    :class:`~disdf.forest.ForestModel`; a forest's table is the same whether
    it is grown alone or with others.  A node becomes a leaf when it is
    pure, has fewer than ``min_leaf`` rows, is at depth ``max_depth``, or no
    candidate feature gives a split with rows on both sides.  A leaf is
    stored as its uint32 class counts.  One split search scores the
    positions of whole nodes, at most ``SCORE_POSITIONS`` of them unless a
    single node holds more; this bounds the scoring temporaries whatever
    the number of forests.  It checks none of its inputs:
    :func:`~disdf.forest.train_forests`, its caller, refuses an unknown
    kind, unpaired kinds, row sets and generators, and an empty row set.
    """
    X, y, C = ds.features, ds.labels, ds.num_classes
    m = X.shape[1]
    values = X.ravel()
    # kind-major: the random-split-search forests come first, so each depth's
    # open nodes of one kind are a contiguous run of the frontier
    cr = np.array([kind == COMPLETELY_RANDOM for kind in kinds], dtype=bool)
    forest_order = np.argsort(cr, kind="stable")
    rows = [rows[f] for f in forest_order]
    rngs = [rngs[f] for f in forest_order]
    F, n_rss = len(rows), int(np.count_nonzero(~cr))
    if n_rss:
        rank = _dense_ranks(X)
    if n_rss < F:
        tied = tied_columns(X)
        X_tied = X[:, tied]
    n_trees = [r.shape[0] for r in rows]

    # the frontier: position i is training row sample[i] in frontier node
    # node[i]; frontier node k belongs to forest owner[k], forest by forest
    sample = np.concatenate([r.ravel() for r in rows])
    node = np.repeat(np.arange(sum(n_trees)), np.repeat([r.shape[1] for r in rows], n_trees))
    owner = np.repeat(np.arange(F), n_trees)
    features, thresholds, leaf_counts, bits = [], [], [], []
    # per depth, the forest of each split node, leaf and frontier node
    split_of, leaf_of, node_of = [], [], []
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
        S = s_size.size
        s_counts = counts[open_]
        f = np.zeros(S, dtype=np.intp)
        thr = np.zeros(S)
        found = np.zeros(S, dtype=bool)
        # each forest draws one block for its own open nodes, in order:
        # (nodes, m) uniforms for random-split-search, (nodes, 2) for
        # completely-random; the random-split-search nodes are 0..S_rss-1
        n_open = np.bincount(owner[open_], minlength=F)
        S_rss = int(n_open[:n_rss].sum())
        for kind, lo, hi, forests in (
            (RANDOM_SPLIT, 0, S_rss, range(n_rss)),
            (COMPLETELY_RANDOM, S_rss, S, range(n_rss, F)),
        ):
            if lo == hi:
                continue
            width = m if kind == RANDOM_SPLIT else 2
            u = np.concatenate([rngs[g].random((n_open[g], width)) for g in forests if n_open[g]])
            for a, b in _node_chunks(s_start, s_size, lo, hi):
                p, q = s_start[a], s_start[b - 1] + s_size[b - 1]
                chunk_node = s_node[p:q] - a if a else s_node[p:q]
                args = (s_sample[p:q], chunk_node, s_start[a:b] - p, u[a - lo:b - lo])
                if kind == RANDOM_SPLIT:
                    f[a:b], thr[a:b], found[a:b] = _rss_splits(
                        values, m, y, rank, s_counts[a:b], *args
                    )
                else:
                    f[a:b], thr[a:b], found[a:b] = _cr_splits(values, m, tied, X_tied, *args)
        go_left = values.take(s_sample * m + f[s_node]) <= thr[s_node]
        n_left = np.bincount(s_node[go_left], minlength=S)
        # a split whose rows all fall on one side (floating-point edge cases) is a leaf
        found &= (n_left > 0) & (n_left < s_size)

        # a forest's frontier nodes, depth by depth, are its references in
        # breadth-first order: its roots, then each split node's (left, right)
        split = np.zeros(n_nodes, dtype=bool)
        split[open_] = found
        bits.append(split)
        node_of.append(owner)
        split_of.append(owner[split])
        leaf_of.append(owner[~split])
        features.append(f[found])
        thresholds.append(thr[found])
        leaf_counts.append(counts[~split].astype(np.uint32))

        # next frontier: split node k's left child is node 2k, its right 2k + 1
        move = found[s_node]
        new_node = 2 * (np.cumsum(found) - 1)[s_node[move]] + ~go_left[move]
        sample = s_sample[move].take(_packed_order(new_node))
        node = new_node  # sorted in place
        owner = np.repeat(owner[split], 2)
        depth += 1

    def by_forest(parts, part_owners, dtype=None):
        """The parts, emptied into one array per forest, each in part order."""
        of = np.concatenate(part_owners)
        flat = np.concatenate(parts, dtype=dtype)
        parts.clear()
        order = np.argsort(of, kind="stable")
        return np.split(flat.take(order, axis=0), np.cumsum(np.bincount(of, minlength=F))[:-1])

    tables = list(zip(
        by_forest(features, split_of, np.int32),
        by_forest(thresholds, split_of),
        by_forest(bits, node_of),
        by_forest(leaf_counts, leaf_of),
    ))
    # back from kind-major to the callers' forest order
    return [tables[i] for i in np.argsort(forest_order)]


def _node_chunks(start, size, lo, hi):
    """Runs [a, b) of nodes lo..hi-1 holding at most ``SCORE_POSITIONS`` positions, or one node."""
    end = start + size
    a = lo
    while a < hi:
        cap = start[a] + SCORE_POSITIONS
        b = min(hi, max(a + 1, int(np.searchsorted(end, cap, side="right"))))
        yield a, b
        a = b


def grow_bytes(ds: Dataset, kinds: list[str], slot_positions: int) -> tuple[int, int]:
    """About the peak bytes :func:`grow_trees` allocates, as ``(slot, fixed)``:
    s slots of the given ``kinds`` grown in one call on the rows of ``ds``
    take ``s * slot + fixed``.  A slot has ``slot_positions`` (tree, row)
    positions over its forests; ``ds`` has n rows of m features, C classes
    and ``n_tied`` columns that repeat a value (:func:`tied_columns`).

    Each slot position is charged ``72 + 8 C`` bytes, of either kind, for
    its frontier and its node tables, whose leaves are uint32 class counts.
    The fixed charge is ``16`` bytes per feature cell, for the column ranks
    or the tied-column scan, plus one scoring chunk of
    ``max(SCORE_POSITIONS, n)`` positions (a chunk holds whole nodes, and a
    root up to n), ``90 ceil(sqrt(m))`` bytes each for random-split-search,
    which scores every candidate of a node at once, and ``16 + 11 n_tied``
    for completely-random, which gathers and reduces the tied columns per
    node; the chunk takes the costlier kind.  Checked against tracemalloc
    peaks of 160 groups of one to four slots, of one kind or both, each k = 3
    fold forests and a refit forest, at 60 to 2000 rows, 4 to 16 trees, m
    from 1 to 100, C = 2 and 8, and no, half or all columns rounded to
    integers: the peak read 0.14 to 0.86 of the estimate, and 0.34 or more
    from 300 rows up, where the fixed scoring chunk no longer dominates.
    """
    per_chunk = {
        RANDOM_SPLIT: 90 * math.ceil(math.sqrt(ds.feature_dim)),
        COMPLETELY_RANDOM: 16 + 11 * tied_columns(ds.features).size,
    }
    chunk = max(SCORE_POSITIONS, ds.n) * max(per_chunk[kind] for kind in kinds)
    return slot_positions * (72 + 8 * ds.num_classes), 16 * ds.n * ds.feature_dim + chunk


def tied_columns(X: np.ndarray) -> np.ndarray:
    """Indices of the columns of X in which some value repeats (``-0.0 == 0.0``)."""
    ordered = np.sort(X, axis=0)
    return np.flatnonzero((ordered[1:] == ordered[:-1]).any(axis=0))


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Per column, the rank of each value among the column's distinct values."""
    order = np.argsort(X, axis=0, kind="stable")
    ordered = np.take_along_axis(X, order, axis=0)
    steps = np.zeros(X.shape, dtype=np.int64)
    steps[1:] = ordered[1:] != ordered[:-1]
    del ordered
    np.cumsum(steps, axis=0, out=steps)
    rank = np.empty_like(steps)
    np.put_along_axis(rank, order, steps, axis=0)
    return rank


def _packed_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of non-negative int64 keys, leaving ``key`` sorted.

    One in-place sort of ``key << b | position``, b bits holding a position:
    on 24k keys about half the time of an argsort (numpy 2.4 on a 2-vCPU
    x86-64 VM).  ``config.MEMORY_LIMIT`` keeps the grower's packed keys
    inside int64.  A level is grown only when 16 n m bytes of column ranks
    and 80 bytes per (tree, row) position fit it, so n m < 2**26 and a
    call's P positions < 2**24 (n rows, m features).  A scoring chunk of S
    nodes and N positions packs keys below k S n, k <= 2 sqrt(m)
    candidates, with positions below 2 k N: under 2**55, as S N <=
    max(2**23, n) (nodes share a chunk only up to 2**12 positions, and an
    open node has 2 rows).  The frontier packs child nodes below P with
    positions below 2 P: under 2**49.
    """
    b = max(key.size - 1, 0).bit_length()
    key <<= b
    key |= np.arange(key.size)
    key.sort()
    order = key & ((1 << b) - 1)
    key >>= b
    return order


def _rss_splits(values, m, y, rank, counts, sample, node, start, u):
    """Best Gini split per open node over its ceil(sqrt(m)) candidate features.

    ``values`` is the row-major feature matrix flattened, ``counts`` the open
    nodes' class counts, ``sample``/``node`` their positions grouped by node
    and ``start`` each node's first position; row s of the uniforms ``u``
    orders node s's candidates.  Returns (feature, threshold, found) per
    node.  All candidates are scored at once: one segmented sort by
    (candidate, node, value rank), done as an in-place sort of those keys
    packed with their positions (:func:`_packed_order`), then for every
    class but the last a cumulative count that gives every cut between
    distinct values its class counts; the last class's are what the others
    leave of each side.  Equal keys are equal values, so their order moves
    no cut or threshold.
    """
    S, C = counts.shape
    N = sample.size
    k = math.ceil(math.sqrt(m))
    candidates = np.argsort(u, axis=1)[:, :k]
    # position j*N + i is position i of the frontier scored on candidate j
    group = (np.arange(k)[:, None] * S + node).ravel()
    key = rank.ravel().take((sample * m + candidates[node].T).ravel())
    key += group * rank.shape[0]  # ranks < n_rows
    order = _packed_order(key)
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
    # the squared class counts left and right of each cut, summed over
    # classes; the last class's left count is what the others leave of the
    # cut's left side, so only C - 1 classes are scanned
    n_left = end - first
    rest = n_left.copy()
    left_sq = np.zeros(end.size, dtype=np.int64)
    right_sq = np.zeros(end.size, dtype=np.int64)
    cum = np.zeros(order.size + 1, dtype=np.int64)
    for c in range(C - 1):
        np.cumsum(ranked == c, out=cum[1:])
        left = cum.take(end) - cum.take(first)
        rest -= left
        right = counts[:, c].take(cut_node) - left
        left_sq += left * left
        right_sq += right * right
    del ranked, cum, first, left
    right = counts[:, -1].take(cut_node) - rest
    left_sq += rest * rest
    right_sq += right * right
    del rest, right
    n = counts.sum(axis=1).take(cut_node)
    n_left = n_left.astype(np.float64)
    n_right = n - n_left
    # score = (n_left * gini_left + n_right * gini_right) / n with
    # gini = 1 - sq / n_side**2, in place, one side at a time
    score = n_left * n_left
    np.divide(left_sq, score, out=score)
    del left_sq
    np.subtract(1.0, score, out=score)
    score *= n_left
    del n_left
    right = n_right * n_right
    np.divide(right_sq, right, out=right)
    del right_sq
    np.subtract(1.0, right, out=right)
    right *= n_right
    del n_right
    score += right
    del right
    score /= n
    del n

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


def _cr_splits(values, m, tied, X_tied, sample, node, start, u):
    """A completely-random split per open node: (feature, threshold, found).

    ``values`` is the row-major feature matrix flattened, ``X_tied`` its
    columns ``tied`` (:func:`tied_columns`), ``sample``/``node`` the open
    nodes' positions grouped by node and ``start`` each node's first
    position; row s of the uniforms ``u`` picks node s's feature and
    threshold.  Only tied columns are checked for a constant value at a
    node: an open node holds two classes, hence two distinct rows, which
    differ in every column where no value repeats.
    """
    at_node = X_tied[sample]
    lo = np.minimum.reduceat(at_node, start, axis=0)
    constant = ~(np.maximum.reduceat(at_node, start, axis=0) > lo)
    del at_node, lo
    n_varying = m - constant.sum(axis=1)
    pick = np.minimum((u[:, 0] * n_varying).astype(np.intp), n_varying - 1)
    # the pick-th varying column is pick plus the constant columns before it,
    # those with at most pick varying columns before them; constant tied
    # column j has tied[j] + 1 - (constant columns up to and including j)
    before = np.cumsum(constant, axis=1, dtype=np.int32)
    np.subtract(tied.astype(np.int32) + 1, before, out=before)
    passed = before <= pick[:, None]
    del before
    passed &= constant
    feature = np.maximum(pick, 0) + passed.sum(axis=1)
    del constant, passed
    picked = values.take(sample * m + feature.take(node))
    a, b = np.minimum.reduceat(picked, start), np.maximum.reduceat(picked, start)
    threshold = a + (b - a) * u[:, 1]
    # a uniform draw in [lo, hi) keeps both children non-empty
    threshold = np.where(threshold >= b, np.nextafter(b, a), threshold)
    return feature, threshold, n_varying > 0

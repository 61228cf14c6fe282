"""Reference implementations used as test oracles: a depth-first tree grower,
node tables by child and root references, one forest's per-tree routing and
solvers for the per-forest weight problem."""

import math

import numpy as np

from disdf.data import Dataset
from disdf.errors import DataError
from disdf.forest import ForestModel, _inputs, _route_leaves, _walk_tables
from disdf.tree import RANDOM_SPLIT, TREE_KINDS, TreeParams
from disdf.weightopt import ObjectiveParams, gradient, objective, project_simplex

# plain_frank_wolfe renormalizes its iterate every this many steps
RENORM_PERIOD = 100


class ConvergenceError(Exception):
    """The reference solver did not reach its tolerance within its iteration cap."""


def reference_solve(
    params: ObjectiveParams,
    tol: float = 1e-9,
    max_iter: int = 200_000,
) -> np.ndarray:
    """High-precision minimizer via projected gradient with backtracking.

    Runs until the Frank-Wolfe duality gap (an upper bound on suboptimality)
    drops to ``tol``.  Intended for small instances (tens of trees); raises
    :class:`ConvergenceError` with the last gap if the cap is hit.
    """
    T = params.n_trees
    if T > 64:
        raise ValueError(f"reference solver is for T <= 64, got {T}")
    w = np.full(T, 1.0 / T)
    f_w = objective(params, w)
    eta = 1.0
    gap = np.inf
    for _ in range(max_iter):
        grad = gradient(params, w)
        gap = float(w @ grad - grad.min())
        if gap <= tol:
            return w
        # backtracking with a rounding allowance so steps near the optimum,
        # where true decrease is below machine precision, are still accepted
        slack = 1e-14 * (1.0 + abs(f_w))
        while True:
            cand = project_simplex(w - eta * grad)
            step = cand - w
            f_cand = objective(params, cand)
            if f_cand <= f_w + grad @ step + (step @ step) / (2.0 * eta) + slack:
                break
            eta *= 0.5
            if eta < 1e-16:
                raise ConvergenceError(
                    f"projected-gradient line search stalled at gap {gap:.3e}"
                )
        w, f_w = cand, f_cand
        eta = min(eta * 1.5, 1e8)
    raise ConvergenceError(
        f"no convergence to gap {tol:.1e} within {max_iter} iterations; "
        f"last gap {gap:.3e}"
    )


def plain_frank_wolfe(params: ObjectiveParams, n_iterations: int):
    """Frank-Wolfe from uniform weights with step sizes 2/(s+2), returning its
    weights and duality gap: at 2000 steps, the J that ``solve_weights`` must
    match or beat.

    Each step moves toward the vertex at the smallest gradient component
    (ties to the lowest index), and the iterate is renormalized every
    ``RENORM_PERIOD`` steps.
    """
    w = np.full(params.n_trees, 1.0 / params.n_trees)
    for s in range(n_iterations):
        grad = gradient(params, w)
        t0 = int(np.argmin(grad))
        gamma = 2.0 / (s + 2.0)
        w *= 1.0 - gamma
        w[t0] += gamma
        if (s + 1) % RENORM_PERIOD == 0:
            np.maximum(w, 0.0, out=w)
            w /= w.sum()
    grad = gradient(params, w)
    return w, float(w @ grad - grad.min())


class _Builder:
    """Node arrays of one tree: internal nodes in creation order, leaf rows."""

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.children: list[int] = []
        self.counts: list[np.ndarray] = []

    def add_leaf(self, counts: np.ndarray) -> int:
        self.counts.append(counts)
        return ~(len(self.counts) - 1)

    def add_internal(self, f: int, thr: float) -> int:
        self.feature.append(f)
        self.threshold.append(thr)
        self.children += [0, 0]
        return len(self.feature) - 1

    def finish(self) -> tuple[np.ndarray, ...]:
        return (
            np.asarray(self.feature, dtype=np.int32),
            np.asarray(self.threshold, dtype=np.float64),
            np.asarray(self.children, dtype=np.int32),
            np.vstack(self.counts).astype(np.uint32),
        )


def _best_gini_split(X, y, idx, counts, candidates):
    """Best (feature, threshold, score) among candidate features, or None.

    Thresholds are midpoints between consecutive distinct sorted values;
    score is the samples-weighted Gini impurity of the two children.
    """
    n = idx.size
    C = counts.size
    best_score = np.inf
    best = None
    y_node = y[idx]
    for f in candidates:
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        vs = vals[order]
        cut = np.nonzero(vs[1:] > vs[:-1])[0]
        if cut.size == 0:
            continue
        onehot = np.zeros((n, C))
        onehot[np.arange(n), y_node[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left_counts = cum[cut]
        n_left = (cut + 1).astype(np.float64)
        n_right = n - n_left
        right_counts = counts[None, :] - left_counts
        gini_left = 1.0 - (left_counts**2).sum(axis=1) / n_left**2
        gini_right = 1.0 - (right_counts**2).sum(axis=1) / n_right**2
        score = (n_left * gini_left + n_right * gini_right) / n
        j = int(np.argmin(score))
        if score[j] < best_score:
            best_score = float(score[j])
            best = (int(f), 0.5 * (vs[cut[j]] + vs[cut[j] + 1]), best_score)
    return best


def train_tree(
    samples: Dataset,
    kind: str,
    params: TreeParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, ...]:
    """Grow one decision tree on ``samples`` depth first; return its node arrays.

    The library's level-wise :func:`disdf.tree.grow_trees` grows the same
    tree from the same rows wherever the split draws do not matter (one
    feature, so one candidate).  The arrays are ``(feature, threshold,
    children, counts)``.  Internal nodes are numbered in depth-first
    preorder, so node 0 is the root when the tree has any split and every
    child id is larger than its parent's.  Internal node i sends an input to
    ``children[2*i + go_left]``, where ``go_left`` is ``x[feature[i]] <=
    threshold[i]``; an entry ``>= 0`` is an internal node and ``~l`` is leaf
    l, which holds ``counts[l]`` samples per class.  A tree without splits is
    the single leaf ``~0``.  Growth stops when a node is pure, has fewer
    than ``min_leaf`` samples, hits the depth cap, or no usable split exists
    among the candidate features.
    """
    if kind not in TREE_KINDS:
        raise ValueError(f"unknown tree kind {kind!r}")
    X = samples.features
    y = samples.labels
    C = samples.num_classes
    n, m = X.shape
    if n == 0:
        raise DataError("cannot train a tree on an empty sample view")

    builder = _Builder()
    n_candidates = math.ceil(math.sqrt(m))
    # (indices, depth, slot in children that receives the node; -1 for the root)
    stack: list[tuple[np.ndarray, int, int]] = [(np.arange(n, dtype=np.intp), 0, -1)]
    while stack:
        idx, depth, slot = stack.pop()
        y_node = y[idx]
        counts = np.bincount(y_node, minlength=C).astype(np.float64)

        split = None
        stop = (
            idx.size < params.min_leaf
            or (params.max_depth is not None and depth >= params.max_depth)
            or int((counts > 0).sum()) <= 1
        )
        if not stop:
            if kind == RANDOM_SPLIT:
                cand = rng.choice(m, size=min(n_candidates, m), replace=False)
                found = _best_gini_split(X, y, idx, counts, cand)
                if found is not None:
                    split = found[:2]
            else:
                sub = X[idx]
                lo = sub.min(axis=0)
                hi = sub.max(axis=0)
                varying = np.nonzero(hi > lo)[0]
                if varying.size:
                    f = int(varying[rng.integers(varying.size)])
                    thr = float(rng.uniform(lo[f], hi[f]))
                    # uniform draw in [lo, hi) keeps both children non-empty
                    if thr >= hi[f]:
                        thr = float(np.nextafter(hi[f], lo[f]))
                    split = (f, thr)
        if split is not None:
            go_left = X[idx, split[0]] <= split[1]
            left_idx = idx[go_left]
            right_idx = idx[~go_left]
            if left_idx.size == 0 or right_idx.size == 0:
                split = None  # degenerate split from floating-point edge cases

        if split is None:
            node = builder.add_leaf(counts)
        else:
            node = builder.add_internal(*split)
            # push right first so the left child is built first
            stack.append((right_idx, depth + 1, 2 * node))
            stack.append((left_idx, depth + 1, 2 * node + 1))
        if slot >= 0:
            builder.children[slot] = node

    return builder.finish()


def forest_leaves(forest: ForestModel, X) -> np.ndarray:
    """The leaf each row of X reaches in each tree, shape (n, T), routed
    through the one forest alone by the library's walker."""
    X = _inputs(forest, X)
    children, roots = forest.walk_refs
    tables = _walk_tables([forest], children)
    n, T = X.shape[0], roots.size
    return _route_leaves(tables, X, np.repeat(np.arange(n), T), np.tile(roots, n)).reshape(n, T)


def forest_tree_dists_batch(forest: ForestModel, X) -> np.ndarray:
    """Per-tree class distributions for each row of X, shape (n, T, C),
    routed through the one forest alone."""
    return forest.dist.take(forest_leaves(forest, X), axis=0)


def refs_from_bits(is_node) -> tuple[np.ndarray, np.ndarray]:
    """The int32 ``(children, roots)`` references that a forest's
    breadth-first bits stand for, one bit at a time.

    A reference ``>= 0`` is an internal node and ``~l`` is leaf l, each
    numbered in bit order.  ``roots[t]`` is tree t's root and
    ``children[2*i + go_left]`` internal node i's child, right then left,
    where ``go_left`` is ``x[feature[i]] <= threshold[i]``.
    """
    refs, n_nodes, n_leaves = [], 0, 0
    for bit in is_node:
        if bit:
            refs.append(n_nodes)
            n_nodes += 1
        else:
            refs.append(~n_leaves)
            n_leaves += 1
    T = len(refs) - 2 * n_nodes
    children = []
    for i in range(n_nodes):
        children += [refs[T + 2 * i + 1], refs[T + 2 * i]]
    return np.array(children, dtype=np.int32), np.array(refs[:T], dtype=np.int32)


def table_from_refs(feature, threshold, children, counts, roots) -> dict:
    """A node table given by ``children`` and ``roots`` references (as
    :func:`refs_from_bits` gives them), renumbered breadth-first, as the
    ``feature``, ``threshold``, ``is_node`` and ``counts`` of a
    :class:`ForestModel`.

    The references are met one at a time in a queue that starts with the
    roots and takes each internal node's left, then right child; each
    reference gives a bit, and its node or leaf the next id of its kind.
    """
    queue, bits, nodes, leaves = list(roots), [], [], []
    for ref in queue:
        bits.append(ref >= 0)
        if ref >= 0:
            nodes.append(ref)
            queue += [children[2 * ref + 1], children[2 * ref]]
        else:
            leaves.append(~ref)
    nodes, leaves = np.array(nodes, dtype=np.intp), np.array(leaves, dtype=np.intp)
    return {
        "feature": np.asarray(feature, dtype=np.int32)[nodes],
        "threshold": np.asarray(threshold, dtype=np.float64)[nodes],
        "is_node": np.array(bits, dtype=bool),
        "counts": np.asarray(counts, dtype=np.uint32)[leaves],
    }


def forest_from_refs(feature, threshold, children, counts, roots, **rest) -> ForestModel:
    """The :class:`ForestModel` of a node table given by references
    (:func:`table_from_refs`); ``rest`` holds its weights, kind and
    feature count."""
    return ForestModel(**table_from_refs(feature, threshold, children, counts, roots), **rest)

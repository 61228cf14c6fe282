"""Single decision trees: induction into flat node arrays.

Two induction kinds are supported.  ``random-split-search`` samples
ceil(sqrt(m)) candidate features per node and takes the best Gini split over
midpoints between consecutive distinct values.  ``completely-random`` draws
the split feature uniformly among features that vary at the node and the
threshold uniformly between that feature's min and max.
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


class _Builder:
    """Node arrays of one tree: internal nodes in creation order, leaf rows."""

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.children: list[int] = []
        self.dist: list[np.ndarray] = []

    def add_leaf(self, counts: np.ndarray) -> int:
        self.dist.append(counts / counts.sum())
        return ~(len(self.dist) - 1)

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
            np.vstack(self.dist),
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
    """Grow one decision tree on ``samples``; return its node arrays.

    The arrays are ``(feature, threshold, children, dist)``.  Internal nodes
    are numbered in depth-first preorder, so node 0 is the root when the tree
    has any split and every child id is larger than its parent's.  Internal
    node i sends an input to ``children[2*i + go_left]``, where ``go_left``
    is ``x[feature[i]] <= threshold[i]``; an entry ``>= 0`` is an internal
    node and ``~l`` is leaf l, whose class distribution is ``dist[l]``.  A
    tree without splits is the single leaf ``~0``.  Growth stops when a node
    is pure, has fewer than ``min_leaf`` samples, hits the depth cap, or no
    usable split exists among the candidate features.  Leaf distributions
    are class-frequency vectors.
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

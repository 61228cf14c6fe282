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
    def __init__(self, num_classes: int):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.dist: list[np.ndarray] = []
        self.num_classes = num_classes

    def add_leaf(self, counts: np.ndarray) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.dist.append(counts / counts.sum())
        return len(self.feature) - 1

    def add_internal(self, f: int, thr: float) -> int:
        self.feature.append(f)
        self.threshold.append(thr)
        self.left.append(-1)
        self.right.append(-1)
        self.dist.append(np.zeros(self.num_classes))
        return len(self.feature) - 1

    def finish(self) -> tuple[np.ndarray, ...]:
        return (
            np.asarray(self.feature, dtype=np.int32),
            np.asarray(self.threshold, dtype=np.float64),
            np.asarray(self.left, dtype=np.int32),
            np.asarray(self.right, dtype=np.int32),
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

    The arrays are ``(feature, threshold, left, right, dist)``: node 0 is the
    root, ``feature < 0`` marks a leaf, children have larger ids than their
    parent, and ``dist`` rows are valid at leaves.  Growth stops when a node
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

    builder = _Builder(C)
    n_candidates = math.ceil(math.sqrt(m))
    # (indices, depth, parent, is_left); parent -1 for the root
    stack: list[tuple[np.ndarray, int, int, bool]] = [
        (np.arange(n, dtype=np.intp), 0, -1, True)
    ]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        y_node = y[idx]
        counts = np.bincount(y_node, minlength=C).astype(np.float64)

        node_id = None
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
                    f, thr, _ = found
                    node_id = builder.add_internal(f, thr)
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
                    node_id = builder.add_internal(f, thr)

        if node_id is None:
            node_id = builder.add_leaf(counts)
        else:
            go_left = X[idx, builder.feature[node_id]] <= builder.threshold[node_id]
            left_idx = idx[go_left]
            right_idx = idx[~go_left]
            if left_idx.size == 0 or right_idx.size == 0:
                # degenerate split from floating-point edge cases
                builder.feature[node_id] = -1
                builder.dist[node_id] = counts / counts.sum()
            else:
                # push right first so the left child is built first
                stack.append((right_idx, depth + 1, node_id, False))
                stack.append((left_idx, depth + 1, node_id, True))

        if parent >= 0:
            if is_left:
                builder.left[parent] = node_id
            else:
                builder.right[parent] = node_id

    return builder.finish()

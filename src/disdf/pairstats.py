"""Pairwise distribution statistics, reduced to what the weight objective reads.

For a pair of training instances (i, j) and tree t, let ``p`` be the squared
Euclidean and ``q`` the Manhattan difference between the tree's class
distributions for i and j.  A pair is flagged z = 0 when i and j share a
class and z = 1 otherwise.  The objective reads ``p`` only through its sum
over z = 0 pairs (``pi``) and ``q`` only on z = 1 pairs (``q_diff``, one row
per pair), so those two and the z = 0 pair count are all that is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegeneratePairsError

_CHUNK = 1024
# bound on one forest's pair index arrays, q_diff and the weight solver's
# residual; above it, sample pairs instead
MAX_PAIR_BYTES = 1 << 30


@dataclass(frozen=True)
class PairStats:
    pi: np.ndarray  # (T,) squared differences summed over same-class pairs
    q_diff: np.ndarray  # (n_diff, T) Manhattan differences, in [0, 2]
    n_same: int

    @property
    def n_pairs(self) -> int:
        return self.n_same + self.q_diff.shape[0]

    @property
    def n_trees(self) -> int:
        return self.pi.shape[0]


def compute_pair_stats(
    tree_dists: np.ndarray,
    labels: np.ndarray,
    pair_budget: int | None = None,
    rng: np.random.Generator | None = None,
) -> PairStats:
    """Build :class:`PairStats` from an (n, T, C) per-tree distribution tensor.

    All unordered pairs i < j are used unless ``pair_budget`` is smaller than
    n(n-1)/2, in which case a uniform subsample that keeps at least one pair
    of each z value is retained, drawn from ``rng``, which sampling requires
    (a ``ValueError`` without it).  Raises :class:`DegeneratePairsError` when
    every pair shares one z value (e.g. single-class data), and
    :class:`ConfigError` before allocating when the pair arrays would exceed
    ``MAX_PAIR_BYTES``.

    ``q_diff`` adds each pair's classes with :func:`class_sum`: below 8
    classes in sequence from whole class slices, which is numpy's own order,
    and from 8 up with numpy's ``sum``, so it equals
    ``np.abs(d).sum(axis=2)`` bit for bit.  ``pi`` keeps its ``einsum``: no
    sum over class slices matched its order from 4 classes up.
    """
    tree_dists = np.asarray(tree_dists, dtype=np.float64)
    labels = np.asarray(labels)
    n = labels.shape[0]
    if tree_dists.ndim != 3 or tree_dists.shape[0] != n:
        raise ValueError(
            f"tree_dists must be (n, T, C) with n = {n}, got {tree_dists.shape}"
        )
    if n < 2:
        raise DegeneratePairsError("need at least two samples to form pairs")
    T = tree_dists.shape[1]
    check_pair_bytes(n, T, pair_budget)

    n_all = n * (n - 1) // 2
    n_same_all = int(_same_class_after(labels).sum())
    if n_same_all in (0, n_all):
        which = "different-class" if n_same_all == 0 else "same-class"
        raise DegeneratePairsError(
            f"degenerate pair set: every pair is {which}; "
            "both kinds are required"
        )

    if pair_budget is not None and pair_budget < n_all:
        if rng is None:
            raise ValueError("sampling pairs to a pair_budget needs a generator, rng")
        keep = rng.choice(n_all, size=max(int(pair_budget), 2), replace=False)
        keep = _ensure_both_kinds(keep, labels, rng)
        keep.sort()
        ii, jj = _pairs_at(keep, n)
    else:
        ii, jj = np.triu_indices(n, k=1)

    same = labels[ii] == labels[jj]
    pi = np.zeros(T)
    for _, d in _pair_differences(tree_dists, ii[same], jj[same]):
        pi += np.einsum("ptc,ptc->t", d, d)
    diff_i, diff_j = ii[~same], jj[~same]
    # column-major: the weight solver's q_diff @ w and q_diff.T @ h read it
    # a whole column at a time
    q_diff = np.empty((diff_i.size, T), order="F")
    for start, d in _pair_differences(tree_dists, diff_i, diff_j):
        class_sum(np.abs(d, out=d), out=q_diff[start : start + d.shape[0]])

    return PairStats(pi=pi, q_diff=q_diff, n_same=int(same.sum()))


def class_sum(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a.sum(axis=-1)`` bit for bit, but for the sign of a zero sum.

    numpy adds a contiguous last axis shorter than 8 in sequence; so does
    this, one whole slice at a time, so a short class axis costs no per-row
    loop.  From 8 up it is numpy's own sum.
    """
    C = a.shape[-1]
    if C >= 8:
        if out is None:
            return a.sum(axis=-1)
        out[...] = a.sum(axis=-1)
        return out
    out = np.add(a[..., 0], a[..., 1] if C > 1 else 0.0, out=out)
    for c in range(2, C):
        out += a[..., c]
    return out


def check_pair_bytes(n: int, n_trees: int, pair_budget: int | None) -> int:
    """One forest's ``pair_bytes``; :class:`ConfigError` when they exceed ``MAX_PAIR_BYTES``."""
    need = pair_bytes(n, n_trees, pair_budget)
    if need > MAX_PAIR_BYTES:
        raise ConfigError(
            f"pair statistics for {n} rows and {n_trees} trees need about "
            f"{need / 2**20:.0f} MiB, over the {MAX_PAIR_BYTES / 2**20:.0f} MiB "
            "limit; set --pair-budget to sample fewer pairs"
        )
    return need


def pair_bytes(n: int, n_trees: int, pair_budget: int | None) -> int:
    """The memory charge of one forest's pair statistics and weight training.

    Bytes of the pair index arrays plus q_diff, over the pairs formed.
    q_diff is charged for every pair, together with the one float per row
    that the weight solver allocates for the residual ``q_diff @ w`` it
    turns into the hinge in place.  A group of slots forms and solves its
    forests' pairs one forest at a time.
    """
    n_all = n * (n - 1) // 2
    split_and_q = 2 * 8 + 8 * (n_trees + 1)
    if pair_budget is None or pair_budget >= n_all:
        # ii, jj, labels[ii], labels[jj] and the same-class mask over all
        # pairs, then the same/different split of ii and jj and q_diff
        return n_all * (4 * 8 + 1 + split_and_q)
    kept = max(pair_budget, 2)
    # Generator.choice without replacement permutes all n_all indices when it
    # keeps more than a 50th of a large population, else hashes the kept ones
    choice = 8 * n_all if n_all > 10_000 and kept > n_all // 50 else 24 * kept
    # keep, ii, jj, labels[ii], labels[jj] and the mask over kept pairs, and
    # a few per-row arrays over n
    return choice + kept * (5 * 8 + 1 + split_and_q) + 6 * 8 * n


def _same_class_after(labels):
    """Per row i, the number of rows j > i that share its label."""
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    after = np.empty(order.size, dtype=np.int64)
    last = np.searchsorted(ordered, ordered, side="right") - 1
    after[order] = last - np.arange(order.size)
    return after


def _row_starts(n):
    """Linear index of pair (i, i + 1) in ``np.triu_indices(n, 1)`` order."""
    i = np.arange(n, dtype=np.int64)
    return i * (2 * n - i - 1) // 2


def _pairs_at(linear, n):
    """The pairs (i, j) at linear positions of ``np.triu_indices(n, 1)``."""
    starts = _row_starts(n)
    ii = np.searchsorted(starts, linear, side="right") - 1
    return ii, linear - starts[ii] + ii + 1


def _pair_differences(tree_dists, ii, jj):
    """Yield (start, d), d the (chunk, T, C) differences of pairs from start.

    Rows are gathered with ``take`` from the (n, T*C) view and subtracted in
    place: the same bits as fancy indexing, and faster.
    """
    rows = tree_dists.reshape(tree_dists.shape[0], -1)
    for start in range(0, ii.size, _CHUNK):
        end = start + _CHUNK
        d = rows.take(ii[start:end], axis=0)
        d -= rows.take(jj[start:end], axis=0)
        yield start, d.reshape(-1, *tree_dists.shape[1:])


def _ensure_both_kinds(keep, labels, rng):
    """Swap pairs into the subsample so both z values stay represented.

    The swapped-in pair is drawn uniformly among all pairs of the missing
    kind, found by its rank in pair order without forming the pairs.
    """
    n = labels.shape[0]
    for value in (0, 1):
        ii, jj = _pairs_at(keep, n)
        if not ((labels[ii] != labels[jj]) == value).any():
            per_row = _same_class_after(labels)
            if value == 1:
                per_row = n - 1 - np.arange(n) - per_row
            slot = rng.integers(keep.size)
            rank = rng.integers(per_row.sum())
            ends = np.cumsum(per_row)
            i = int(np.searchsorted(ends, rank, side="right"))
            later = (labels[i + 1 :] != labels[i]) == value
            j = i + 1 + np.flatnonzero(later)[rank - ends[i] + per_row[i]]
            keep = keep.copy()
            keep[slot] = _row_starts(n)[i] + j - i - 1
    return keep

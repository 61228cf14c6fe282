"""A fixed loop owned by the benchmark, timed next to every unit of work.

The benchmark runs on cores shared with other tenants.  Their speed drifts:
over a 10-minute recording on a 2-vCPU cloud VM (Xeon, Python 3.11, numpy
2.4), repetitions of one fixed ``holdout-paired`` cycle took 1.4-3.1 s, and the
median of 30-second windows moved from 1.75 s to 2.70 s (quartile distance
over median across windows: 24%).  No statistic taken within a run removes
a slow phase that lasts the whole run.

This loop does the same kinds of work as the library, on fixed inputs: per
feature a sort, a one-hot cumulative sum and Gini scores over 120 rows (the
inner loop of tree growth), and Frank-Wolfe steps with a hinge gradient
over 60k pairs x 10 trees.  It never calls the library, so a change to the
library cannot move it; only the machine can.  A unit's time divided by the
loop's time measured around it cancels the machine's speed: in a 7-minute
recording with an earlier draft of this loop, the median ratio of 30-second
windows spread 7% where their median time spread 24% (figures for this loop
are in ``run.py``).  The benchmark reports that ratio times ``NOMINAL_S``:
the time the work would take on a machine where this loop takes
``NOMINAL_S``.  On the VM above the loop took 0.08-0.13 s, so reported
times read like wall times there.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

import numpy as np

ROWS, FEATURES, SPLIT_ROUNDS = 120, 22, 60
PAIRS, TREES, FW_STEPS = 60_000, 10, 30
NOMINAL_S = 0.1  # the scale of reported times; a constant, never measured

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(ROWS, FEATURES))
_y = _rng.integers(0, 2, ROWS)
_Q = _rng.normal(size=(PAIRS, TREES))


def _split_scores() -> float:
    best = np.inf
    for f in range(FEATURES):
        order = np.argsort(_X[:, f], kind="stable")
        onehot = np.zeros((ROWS, 2))
        onehot[np.arange(ROWS), _y[order]] = 1.0
        left = np.cumsum(onehot, axis=0)[:-1]
        n_left = np.arange(1, ROWS, dtype=np.float64)
        right = left[-1] + onehot[-1] - left
        gini = (n_left * (1.0 - (left**2).sum(axis=1) / n_left**2)
                + (ROWS - n_left) * (1.0 - (right**2).sum(axis=1) / (ROWS - n_left) ** 2))
        best = min(best, float(gini.min()))
    return best


def _fw_steps() -> np.ndarray:
    w = np.full(TREES, 1.0 / TREES)
    for s in range(FW_STEPS):
        hinge = np.maximum(0.0, 1.0 - _Q @ w)
        grad = -2.0 * (_Q.T @ hinge)
        gamma = 2.0 / (s + 2.0)
        w *= 1.0 - gamma
        w[int(np.argmin(grad))] += gamma
    return w


def _loop_s() -> float:
    t0 = time.perf_counter()
    for _ in range(SPLIT_ROUNDS):
        _split_scores()
    _fw_steps()
    return time.perf_counter() - t0


def _child(conn) -> None:
    conn.send(_loop_s())
    conn.close()


def reference_s(copies: int = 1) -> float:
    """Wall time of one pass of the fixed loop.

    With ``copies`` > 1 the loop runs in that many processes at once, as a
    pool of that many workers runs a unit, and the mean of their times is
    returned: a 2-worker unit is slowed by either core, and one process
    would time only the core it happens to run on.
    """
    if copies == 1:
        return _loop_s()
    ctx = multiprocessing.get_context("fork")
    readers, procs = [], []
    try:
        for _ in range(copies):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child, args=(writer,))
            proc.start()
            writer.close()
            readers.append(reader)
            procs.append(proc)
        return statistics.mean(reader.recv() for reader in readers)
    finally:
        for proc in procs:
            proc.join()

"""Per-forest weight training: convex contrastive objective over the unit simplex.

The objective for one forest with weights w is

    J(w) = <pi, w^2> + sum_{different-class pairs} max(0, tau - <Q_ij, w>)^2
           + lambda * ||w||^2

which is convex on the simplex.  It is minimized with the Frank-Wolfe method,
whose linear subproblem over the simplex is solved at a vertex (the index of
the smallest gradient component, ties going to the lowest index).  ``pi`` and
the different-class rows ``Q_ij`` are read from :class:`PairStats`.

Only the rows with ``<Q_ij, w> < tau`` (hinge-active, a few percent of them
in practice) add to the gradient.  Since ``Q_ij >= 0``, a step can shrink a
row's residual ``<Q_ij, w>`` by no more than the factor ``1 - gamma`` it
scales the iterate by, so a safe screen (Ndiaye et al. 2017, *Gap Safe
screening rules*) rules rows out for a whole window of steps from one exact
residual, and the steps run over the remaining rows only.  The first window
covers steps 0 to 99; from step 100 on, a window that starts at step s0 runs
for ``max(MIN_WINDOW, s0 // WINDOW_DIVISOR)`` steps and never past the next
renormalization, so that its bound is tight enough to drop rows.  Every
window starts from residuals recomputed exactly, and the iterates are those
of the plain method up to floating-point rounding.  The duality gap
Frank-Wolfe reports (Jaggi 2013) is a loose upper bound on J(w) - min J.

A step of a forest with few rows costs mostly numpy call overhead, so
:func:`frank_wolfe` steps several forests (a cascade level's, which share T
and tau) in lockstep: one call per elementwise operation over all of them,
and one ``q.T @ hinge`` and one column copy per forest.  Each forest's
arithmetic is the same as when it is solved alone, so its weights are too,
bit for bit.  The per-step duality gap is computed only for a callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import _problem
from .pairstats import FW_COPY_SHARE, PairStats

RENORM_PERIOD = 100
# the screening windows' lengths from step RENORM_PERIOD on; see _window_last
MIN_WINDOW = 10
WINDOW_DIVISOR = 5


@dataclass
class ObjectiveParams:
    """Pair statistics plus the margin tau and regularization strength lambda."""

    stats: PairStats
    tau: float
    lam: float

    def __post_init__(self):
        """Check tau and lam by :class:`TrainConfig`'s rules for them."""
        problem = _problem("tau", "float", self.tau) or _problem("lam", "float", self.lam)
        if problem:
            raise ValueError(problem)

    @property
    def n_trees(self) -> int:
        return self.stats.n_trees


def objective(params: ObjectiveParams, w) -> float:
    """J(w) as defined in the module docstring."""
    return _value_and_gradient(params, w)[0]


def gradient(params: ObjectiveParams, w) -> np.ndarray:
    """Exact gradient of :func:`objective` (validated by finite differences)."""
    return _value_and_gradient(params, w)[1]


def _value_and_gradient(params: ObjectiveParams, w) -> tuple[float, np.ndarray]:
    """J(w) and its gradient, from one ``q_diff @ w`` and one ``q_diff.T @ hinge``."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (params.n_trees,):
        raise ValueError(
            f"weight vector has shape {w.shape}, expected ({params.n_trees},)"
        )
    q_diff, pi, lam = params.stats.q_diff, params.stats.pi, params.lam
    hinge = np.maximum(0.0, params.tau - q_diff @ w)
    value = float(pi @ (w * w) + hinge @ hinge + lam * (w @ w))
    return value, 2.0 * w * (lam + pi) - 2.0 * (q_diff.T @ hinge)


def _window_last(s0):
    """The last step of the screening window that starts at step s0.

    Windows end where the iterate is renormalized, every ``RENORM_PERIOD``
    steps, and from step ``RENORM_PERIOD`` on also after ``max(MIN_WINDOW,
    s0 // WINDOW_DIVISOR)`` steps: 100-119, 120-143, 144-171, 172-199,
    200-239, ..., 480-499, then 100 steps each.
    """
    renorm = (s0 // RENORM_PERIOD + 1) * RENORM_PERIOD
    if s0 < RENORM_PERIOD:
        return renorm - 1
    return min(s0 + max(MIN_WINDOW, s0 // WINDOW_DIVISOR), renorm) - 1


def _screen(q_diff, residual, tau, s0, last):
    """The rows of ``q_diff`` that can be hinge-active in steps s0 to last.

    ``residual`` is ``q_diff @ w``, recomputed exactly at the window's first
    step s0, and ``last`` is the window's last step (:func:`_window_last`).
    Returns the rows and their residuals.  A step keeps ``1 - gamma_k`` of every
    residual and adds ``gamma_k q_diff[:, t] >= 0``, so up to step ``last``
    each residual stays at or above ``residual * prod_{k=s0}^{last-1} (1 -
    gamma_k)``, which telescopes to ``s0 (s0 + 1) / (last (last + 1))``.  A
    row whose bound is still at or above tau has a zero hinge throughout the
    window.  The candidate rows are copied, column-major, only while they
    are at most ``FW_COPY_SHARE`` of all rows; otherwise ``q_diff`` and
    ``residual`` themselves are returned.
    """
    shrink = s0 * (s0 + 1) / (last * (last + 1))
    keep = np.flatnonzero(residual * shrink < tau)
    if keep.size > FW_COPY_SHARE * residual.size:
        return q_diff, residual
    q = np.empty((keep.size, q_diff.shape[1]), order="F")
    for t in range(q_diff.shape[1]):
        np.take(q_diff[:, t], keep, out=q[:, t])
    return q, residual[keep]


def _window(q_diffs, W, tau, s0, last, push):
    """Buffers for steps s0 to last, over the rows the screen keeps.

    Returns the kept rows' residuals of all forests, concatenated, two
    buffers of that length for the hinge and the step, and per forest
    ``(q.T, its slice of the hinge, its row of push)`` and ``(the columns of
    q, its slice of the step)``, q being its kept rows.
    """
    screened = [_screen(q, q @ w, tau, s0, last) for q, w in zip(q_diffs, W)]
    r = np.concatenate([r_f for _, r_f in screened])
    hinge, step = np.empty_like(r), np.empty_like(r)
    cuts = np.cumsum([r_f.size for _, r_f in screened])[:-1]
    q_ts = [q.T for q, _ in screened]
    matvecs = list(zip(q_ts, np.split(hinge, cuts), push))
    columns = list(zip(map(list, q_ts), np.split(step, cuts)))
    return r, hinge, step, matvecs, columns


def frank_wolfe(
    params: Sequence[ObjectiveParams],
    n_iterations: int,
    callback: Callable[[int, np.ndarray, list[float]], None] | None = None,
) -> list[tuple[np.ndarray, float, float]]:
    """Run Frank-Wolfe with step sizes 2/(s+2) from the uniform weights.

    The forests of ``params``, which must share T and tau, are solved in
    lockstep: their iterates are the rows of one (F, T) array and each step
    updates all of them with one numpy call per operation where it can.
    Every forest's arithmetic is element for element that of a solve on its
    own, so its result does not depend on the other forests in the call.

    Every iterate is a convex combination of simplex points, so feasibility
    is preserved; as a guard against floating-point drift the iterate is
    renormalized every ``RENORM_PERIOD`` steps.  The steps fall into
    screening windows (:func:`_window_last`): steps 0 to 99, then from step
    s0 >= 100 windows of ``max(MIN_WINDOW, s0 // WINDOW_DIVISOR)`` steps that
    also end at every renormalization.  At every window start the residual
    ``q_diff @ w`` is recomputed exactly; inside a window it moves with the
    iterate, ``r <- (1 - gamma) r + gamma q_diff[:, t]``.

    Each window runs over only the rows of ``q_diff`` that a safe screen
    (:func:`_screen`) cannot rule out: the other rows have a zero hinge until
    the window ends, so they add nothing to the gradient, and their
    residuals are not needed before the next recompute overwrites them.  The
    iterates are those of the plain method up to floating-point rounding.
    After step 100 a window keeps about a seventh of the rows on a
    train-pairs-sized instance, and late in a run a few percent.  The
    steps track half the gradient, ``w (lambda + pi) - q.T @ hinge``, which
    has the same argmin; the duality gap is computed per step only for
    ``callback(s, W, gaps)``, which gets a copy of the (F, T) iterates and
    each forest's gap.

    Returns, per forest, the final iterate, its duality gap <w - g, grad J(w)>
    where g is the LMO vertex at w, and J(w), all from one pass over its
    ``q_diff``.  The gap bounds J(w) - min J from above, loosely: after the
    default 2000 steps it is about 100 times the true distance.
    """
    params = list(params)
    if n_iterations < 1:
        raise ValueError(f"need at least one iteration, got {n_iterations}")
    if not params:
        raise ValueError("need at least one forest")
    n_trees, tau = params[0].n_trees, params[0].tau
    if any(p.n_trees != n_trees or p.tau != tau for p in params):
        raise ValueError("forests solved in lockstep must share T and tau")
    q_diffs = [p.stats.q_diff for p in params]
    W = np.full((len(params), n_trees), 1.0 / n_trees)
    pull = np.array([p.lam + p.stats.pi for p in params])
    half, push = np.empty_like(W), np.empty_like(W)
    rows = list(W)

    last = -1
    for s in range(n_iterations):
        if s > last:
            # drop the last window's copies, also held by the loop names,
            # before the screen makes the next ones
            r = hinge = step = matvecs = columns = q_t = hinge_f = cols = step_f = None
            last = _window_last(s)
            r, hinge, step, matvecs, columns = _window(q_diffs, W, tau, s, last, push)
        np.subtract(tau, r, out=hinge)
        np.maximum(hinge, 0.0, out=hinge)
        np.multiply(W, pull, out=half)
        for q_t, hinge_f, push_f in matvecs:
            np.dot(q_t, hinge_f, out=push_f)
        half -= push
        t0 = half.argmin(axis=1).tolist()
        if callback is not None:
            grad = 2.0 * half
            callback(s, W.copy(), [float(w @ g - g[t]) for w, g, t in zip(W, grad, t0)])
        gamma = 2.0 / (s + 2.0)
        W *= 1.0 - gamma
        for w, t in zip(rows, t0):
            w[t] += gamma
        if (s + 1) % RENORM_PERIOD == 0:
            for w in rows:
                np.maximum(w, 0.0, out=w)
                w /= w.sum()
        elif s < last:
            r *= 1.0 - gamma
            for (cols, step_f), t in zip(columns, t0):
                np.multiply(cols[t], gamma, out=step_f)
            r += step

    results = []
    for p, w in zip(params, W):
        w = w.copy()
        value, grad = _value_and_gradient(p, w)
        results.append((w, float(w @ grad - grad.min()), value))
    return results

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
residual, and the steps run over the remaining rows only.  The duality gap
Frank-Wolfe reports (Jaggi 2013) is a loose upper bound on J(w) - min J.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pairstats import FW_COPY_SHARE, PairStats

RENORM_PERIOD = 100


@dataclass
class ObjectiveParams:
    """Pair statistics plus the margin tau and regularization strength lambda."""

    stats: PairStats
    tau: float
    lam: float

    def __post_init__(self):
        if not np.isfinite(self.tau) or self.tau <= 0:
            raise ValueError(f"tau must be a positive finite real, got {self.tau}")
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(
                f"lambda must be a non-negative finite real, got {self.lam}"
            )

    @property
    def n_trees(self) -> int:
        return self.stats.n_trees


def _check_len(params: ObjectiveParams, w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (params.n_trees,):
        raise ValueError(
            f"weight vector has shape {w.shape}, expected ({params.n_trees},)"
        )
    return w


def objective(params: ObjectiveParams, w) -> float:
    """J(w) as defined in the module docstring."""
    w = _check_len(params, w)
    hinge = np.maximum(0.0, params.tau - params.stats.q_diff @ w)
    return float(params.stats.pi @ (w * w) + hinge @ hinge + params.lam * (w @ w))


def gradient(params: ObjectiveParams, w) -> np.ndarray:
    """Exact gradient of :func:`objective` (validated by finite differences)."""
    w = _check_len(params, w)
    hinge = np.maximum(0.0, params.tau - params.stats.q_diff @ w)
    return _gradient_at(params, w, params.stats.q_diff, hinge)


def _gradient_at(params: ObjectiveParams, w, q, hinge) -> np.ndarray:
    """The gradient at w given the hinges of rows ``q`` of ``q_diff``.

    ``q`` must hold every row whose hinge ``max(0, tau - q_diff @ w)`` is
    non-zero; the others add nothing to the gradient.
    """
    grad = 2.0 * w * (params.lam + params.stats.pi)
    if q.shape[0]:
        grad -= 2.0 * (q.T @ hinge)
    return grad


def _screen(q_diff, residual, tau, s0):
    """The rows of ``q_diff`` that can be hinge-active in the window from step s0.

    Returns them and their residuals.  A step keeps ``1 - gamma_k`` of every
    residual and adds ``gamma_k q_diff[:, t] >= 0``, so up to the window's
    last step ``s0 + RENORM_PERIOD - 1`` each residual stays at or above
    ``residual * prod_{k=s0}^{last-1} (1 - gamma_k)``, which telescopes to
    ``s0 (s0 + 1) / (last (last + 1))``.  A row whose bound is still at or
    above tau has a zero hinge throughout the window.  The candidate rows are
    copied, column-major, only while they are at most ``FW_COPY_SHARE`` of
    all rows; otherwise ``q_diff`` and ``residual`` themselves are returned.
    """
    last = s0 + RENORM_PERIOD - 1
    shrink = s0 * (s0 + 1) / (last * (last + 1))
    keep = np.flatnonzero(residual * shrink < tau)
    if keep.size > FW_COPY_SHARE * residual.size:
        return q_diff, residual
    q = np.empty((keep.size, q_diff.shape[1]), order="F")
    for t in range(q_diff.shape[1]):
        np.take(q_diff[:, t], keep, out=q[:, t])
    return q, residual[keep]


def frank_wolfe(
    params: ObjectiveParams,
    n_iterations: int,
    callback: Callable[[int, np.ndarray, float], None] | None = None,
) -> tuple[np.ndarray, float]:
    """Run Frank-Wolfe with step sizes 2/(s+2) from the uniform weights.

    Every iterate is a convex combination of simplex points, so feasibility
    is preserved; as a guard against floating-point drift the iterate is
    renormalized every ``RENORM_PERIOD`` steps.  The residual ``q_diff @ w``
    moves with the iterate, ``r <- (1 - gamma) r + gamma q_diff[:, t]``, and
    is recomputed exactly whenever the iterate is renormalized.

    Each such window of steps runs over only the rows of ``q_diff`` that a
    safe screen (:func:`_screen`) cannot rule out: the other rows have a zero
    hinge until the next recompute, so they add nothing to the gradient, and
    their residuals are not needed before the recompute overwrites them.  The
    iterates are those of the plain method up to floating-point summation
    order.  Late in a run only a few percent of the rows are candidates.

    Returns the final iterate and its duality gap <w - g, grad J(w)> where g
    is the LMO vertex at w.  The gap bounds J(w) - min J from above, loosely:
    after the default 2000 steps it is about 100 times the true distance.
    ``callback(s, w, gap)`` is invoked with a copy of each iterate.
    """
    if n_iterations < 1:
        raise ValueError(f"need at least one iteration, got {n_iterations}")
    q_diff = params.stats.q_diff
    w = np.full(params.n_trees, 1.0 / params.n_trees)
    residual = q_diff @ w

    for s in range(n_iterations):
        if s % RENORM_PERIOD == 0:
            q = r = None  # free the last window's copy before the next one
            q, r = _screen(q_diff, residual, params.tau, s)
            hinge, step = np.empty_like(r), np.empty_like(r)
        np.subtract(params.tau, r, out=hinge)
        np.maximum(hinge, 0.0, out=hinge)
        grad = _gradient_at(params, w, q, hinge)
        t0 = int(np.argmin(grad))
        gap = float(w @ grad - grad[t0])
        if callback is not None:
            callback(s, w.copy(), gap)
        gamma = 2.0 / (s + 2.0)
        w *= 1.0 - gamma
        w[t0] += gamma
        if (s + 1) % RENORM_PERIOD == 0:
            np.maximum(w, 0.0, out=w)
            w /= w.sum()
            residual = q_diff @ w
        else:
            r *= 1.0 - gamma
            np.multiply(q[:, t0], gamma, out=step)
            r += step

    grad = gradient(params, w)
    gap = float(w @ grad - grad.min())
    return w, gap

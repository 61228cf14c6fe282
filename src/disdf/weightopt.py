"""Per-forest weight training: convex contrastive objective over the unit simplex.

The objective for one forest with weights w is

    J(w) = <pi, w^2> + sum_{different-class pairs} max(0, tau - <Q_ij, w>)^2
           + lambda * ||w||^2

which is convex on the simplex.  It is minimized with the Frank-Wolfe method,
whose linear subproblem over the simplex is solved at a vertex (the index of
the smallest gradient component, ties going to the lowest index).  ``pi`` and
the different-class rows ``Q_ij`` are read from :class:`PairStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pairstats import PairStats

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
    w = _check_len(params, w)
    hinge = np.maximum(0.0, params.tau - params.stats.q_diff @ w)
    return float(
        params.stats.pi @ (w * w) + hinge @ hinge + params.lam * (w @ w)
    )


def gradient(params: ObjectiveParams, w) -> np.ndarray:
    """Exact gradient of :func:`objective` (validated by finite differences)."""
    w = _check_len(params, w)
    return _gradient_at(params, w, params.stats.q_diff @ w)


def _gradient_at(params: ObjectiveParams, w, residual) -> np.ndarray:
    """The gradient at w given its residual ``q_diff @ w``."""
    grad = 2.0 * w * (params.lam + params.stats.pi)
    q_diff = params.stats.q_diff
    if q_diff.shape[0]:
        hinge = np.maximum(0.0, params.tau - residual)
        grad -= 2.0 * (q_diff.T @ hinge)
    return grad


def frank_wolfe(
    params: ObjectiveParams,
    n_iterations: int,
    callback: Callable[[int, np.ndarray, float], None] | None = None,
) -> tuple[np.ndarray, float]:
    """Run Frank-Wolfe with step sizes 2/(s+2) from the uniform weights.

    Every iterate is a convex combination of simplex points, so feasibility
    is preserved; as a guard against floating-point drift the iterate is
    renormalized every ``RENORM_PERIOD`` steps.  The residual ``q_diff @ w``
    moves with the iterate, ``r <- (1 - gamma) r + gamma q_diff[:, t]``, so
    a step reads ``q_diff`` once, for the gradient; ``r`` is recomputed
    exactly whenever the iterate is renormalized.  Returns the final iterate
    and its duality gap <w - g, grad J(w)> where g is the LMO vertex at w.
    ``callback(s, w, gap)`` is invoked with a copy of each iterate.
    """
    if n_iterations < 1:
        raise ValueError(f"need at least one iteration, got {n_iterations}")
    q_diff = params.stats.q_diff
    w = np.full(params.n_trees, 1.0 / params.n_trees)
    residual = q_diff @ w

    for s in range(n_iterations):
        grad = _gradient_at(params, w, residual)
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
            residual *= 1.0 - gamma
            residual += gamma * q_diff[:, t0]

    grad = gradient(params, w)
    gap = float(w @ grad - grad.min())
    return w, gap

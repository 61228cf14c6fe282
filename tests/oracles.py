"""Reference solvers for the per-forest weight problem, used as test oracles."""

import numpy as np

from disdf.weightopt import RENORM_PERIOD, ObjectiveParams, gradient, objective


class ConvergenceError(Exception):
    """The reference solver did not reach its tolerance within its iteration cap."""


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit simplex (sort-based, exact)."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    rho = np.nonzero(u + (1.0 - css) / j > 0)[0][-1]
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


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


def plain_frank_wolfe(params: ObjectiveParams, n_iterations: int, callback=None):
    """Frank-Wolfe that evaluates ``gradient(params, w)`` afresh at every step.

    The same steps, vertex rule, renormalization and callback as
    :func:`disdf.weightopt.frank_wolfe`, without carrying ``q_diff @ w``.
    """
    w = np.full(params.n_trees, 1.0 / params.n_trees)
    for s in range(n_iterations):
        grad = gradient(params, w)
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
    grad = gradient(params, w)
    return w, float(w @ grad - grad.min())

"""Per-forest weight training: a convex quadratic program over the unit simplex.

The objective for one forest with weights w is

    J(w) = <pi, w^2> + sum_{different-class pairs} max(0, tau - <Q_ij, w>)^2
           + lambda * ||w||^2

where ``pi`` and the different-class rows ``Q_ij`` are read from
:class:`PairStats`.  J is convex, and mu-strongly convex with mu = 2 min(lambda
+ pi).  :func:`solve_weights` minimizes it over the simplex by FISTA with
backtracking (Beck & Teboulle 2009): gradient steps of 1/L projected onto
the simplex (:func:`project_simplex`), L doubled until the step passes the
sufficient-decrease test, with momentum that restarts whenever it points
against the step (O'Donoghue & Candes 2015, gradient scheme).  L starts at
the quadratic part's curvature, 2 max(lambda + pi), and grows only as far
as the hinge rows active along the path need.  A bound over all rows, 2
max(lambda + pi) + 2 lambda_max(Q^T Q), read 15 to 1,150 times the start
on measured forests, the most on 8-class data, where few rows are inside
the margin, and steps of its inverse are as many times shorter.

Every ``CHECK_PERIOD`` steps the solver certifies its iterate w.  By strong
convexity, min J over the simplex is at least

    J(w) + <g, v - w> + mu/2 ||v - w||^2,   g = grad J(w), v = proj(w - g / mu),

the least that bound takes over the simplex.  With mu = 0 (lambda = 0 and
some pi_t = 0) v is a vertex at the smallest gradient component and the bound
is Frank-Wolfe's, J(w) + min g - <g, w>, its mu -> 0 limit.  The minimizer is
then possibly not unique, but the solver's path, and so its result, is still
a deterministic function of its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import _problem
from .pairstats import PairStats

# stop once the certified gap is at most this share of J at the returned weights
SOLVE_TOL = 1e-9
# steps between two certificates
CHECK_PERIOD = 5
# the share of J(y) by which a backtracking step may miss sufficient decrease,
# an allowance for rounding in J
DECREASE_SLACK = 1e-12


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


class Solution(NamedTuple):
    """A solve's weights, their certified gap, J at them, and the steps taken."""

    weights: np.ndarray
    gap: float
    objective: float
    steps: int


def objective(params: ObjectiveParams, w) -> float:
    """J(w) as defined in the module docstring."""
    return _value_and_gradient(params, w, with_gradient=False)[0]


def gradient(params: ObjectiveParams, w) -> np.ndarray:
    """Exact gradient of :func:`objective` (validated by finite differences)."""
    return _value_and_gradient(params, w)[1]


def _value_and_gradient(params: ObjectiveParams, w, with_gradient=True):
    """J(w) and its gradient (or None), from one ``q_diff @ w`` and one ``q_diff.T @ hinge``.

    The residual ``q_diff @ w`` is turned into the hinge in place, so an
    evaluation allocates one float per row of ``q_diff``.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (params.n_trees,):
        raise ValueError(
            f"weight vector has shape {w.shape}, expected ({params.n_trees},)"
        )
    q_diff, pi, lam = params.stats.q_diff, params.stats.pi, params.lam
    hinge = q_diff @ w
    np.subtract(params.tau, hinge, out=hinge)
    np.maximum(hinge, 0.0, out=hinge)
    value = float(pi @ (w * w) + hinge @ hinge + lam * (w @ w))
    if not with_gradient:
        return value, None
    return value, 2.0 * w * (lam + pi) - 2.0 * (q_diff.T @ hinge)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit simplex (sort-based, exact; Duchi et al. 2008).

    With ``u`` the entries in descending order, the rho largest are kept,
    where the j with ``j u_j > sum(u[:j]) - 1`` are the prefix 1..rho, and
    shifted by the same amount to sum to 1.
    """
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - 1.0
    rho = np.count_nonzero(u * np.arange(1, v.size + 1) > excess)
    return np.maximum(v - excess[rho - 1] / rho, 0.0)


def _lower_bound(value, grad, w, mu) -> float:
    """The strong-convexity lower bound on min J over the simplex, from w."""
    if mu == 0.0:
        return value + float(grad.min() - grad @ w)
    d = project_simplex(w - grad / mu) - w
    return value + float(grad @ d + 0.5 * mu * (d @ d))


def solve_weights(params: ObjectiveParams, max_iterations: int) -> Solution:
    """Minimize J over the simplex from the uniform weights, to a certified gap.

    Runs FISTA steps with backtracking, restarting the momentum whenever
    ``<y - w_next, w_next - w> > 0``, and certifies the uniform start, every
    ``CHECK_PERIOD``-th iterate and the last as the module docstring states.
    A step from y to p = proj(y - g / L) is taken once ``J(p) <= J(y) + <g, p
    - y> + L/2 ||p - y||^2``, up to a rounding allowance of ``DECREASE_SLACK``
    times J(y).  It stops once the lowest J checked exceeds the highest
    lower bound by at most ``SOLVE_TOL`` times that J, or after
    ``max_iterations`` steps, and returns the lowest-J point checked, so J
    there is at most J at uniform.  The gap it returns bounds J there minus
    min J; with mu > 0 it also bounds ``||w - w*||^2 <= 2 gap / mu``.  When
    min J is 0, which needs lambda = 0, the stop is met only at J = 0
    exactly, so the solve may run to its cap.
    """
    if max_iterations < 1:
        raise ValueError(f"need at least one iteration, got {max_iterations}")
    pull = params.lam + params.stats.pi
    mu = 2.0 * float(pull.min())
    w = np.full(params.n_trees, 1.0 / params.n_trees)
    best_value, grad = _value_and_gradient(params, w)
    best, bound = w, _lower_bound(best_value, grad, w, mu)
    # with lambda = 0 and every pi_t = 0 only the hinge has curvature
    lipschitz = 2.0 * float(pull.max()) or 1.0
    y, t, steps = w, 1.0, 0
    while best_value - bound > SOLVE_TOL * best_value and steps < max_iterations:
        steps += 1
        value, grad = _value_and_gradient(params, y)
        while True:
            w_next = project_simplex(y - grad / lipschitz)
            d = w_next - y
            allowed = value + grad @ d + 0.5 * lipschitz * (d @ d) + DECREASE_SLACK * value
            if objective(params, w_next) <= allowed:
                break
            lipschitz *= 2.0
        if (y - w_next) @ (w_next - w) > 0:
            t = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = w_next + (t - 1.0) / t_next * (w_next - w)
        w, t = w_next, t_next
        if steps % CHECK_PERIOD == 0 or steps == max_iterations:
            value, grad = _value_and_gradient(params, w)
            bound = max(bound, _lower_bound(value, grad, w, mu))
            if value < best_value:
                best, best_value = w, value
    return Solution(best, max(best_value - bound, 0.0), best_value, steps)

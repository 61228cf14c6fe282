from dataclasses import replace

import numpy as np
import pytest

from disdf import weightopt
from disdf.forest import uniform_weights
from disdf.pairstats import PairStats, compute_pair_stats
from disdf.weightopt import (
    CHECK_PERIOD,
    SOLVE_TOL,
    ObjectiveParams,
    gradient,
    objective,
    project_simplex,
    solve_weights,
)
from tests.oracles import ConvergenceError, plain_frank_wolfe, reference_solve


def pair_rows(rng, n_trees, n_same, n_diff, num_classes=3):
    """Per-pair z flags and P, Q rows from actual probability-vector draws."""
    n_pairs = n_same + n_diff
    z = np.array([0] * n_same + [1] * n_diff, dtype=np.uint8)
    P = np.empty((n_pairs, n_trees))
    Q = np.empty((n_pairs, n_trees))
    for k in range(n_pairs):
        p_i = rng.dirichlet(np.ones(num_classes), size=n_trees)
        p_j = rng.dirichlet(np.ones(num_classes), size=n_trees)
        d = p_i - p_j
        P[k] = (d * d).sum(axis=1)
        Q[k] = np.abs(d).sum(axis=1)
    return z, P, Q


def stats_from_rows(z, P, Q):
    """The PairStats that per-pair rows reduce to."""
    same = z == 0
    return PairStats(pi=P[same].sum(axis=0), q_diff=Q[~same], n_same=int(same.sum()))


def no_pairs(n_trees):
    """Stats with no pairs at all: the objective is the regularizer alone."""
    return PairStats(pi=np.zeros(n_trees), q_diff=np.empty((0, n_trees)), n_same=0)


def pair_instance(rng, n_trees, n_same, n_diff, num_classes=3):
    """Random pair statistics built from actual probability-vector draws."""
    return stats_from_rows(*pair_rows(rng, n_trees, n_same, n_diff, num_classes))


def same_class_only_stats(P_rows):
    """Stats holding only same-class pairs (hinge term absent)."""
    P_rows = np.atleast_2d(np.asarray(P_rows, dtype=float))
    z = np.zeros(P_rows.shape[0], dtype=np.uint8)
    # any valid Q; unused without different-class pairs
    return stats_from_rows(z, P_rows, np.sqrt(P_rows))


def objective_loops(z, P, Q, tau, lam, w):
    """Independent sum-over-pairs evaluation of the training objective."""
    total = lam * sum(float(x) * float(x) for x in w)
    for k in range(z.size):
        if z[k] == 0:
            for t in range(len(w)):
                total += P[k, t] * w[t] ** 2
        else:
            s = tau - sum(Q[k, t] * w[t] for t in range(len(w)))
            if s > 0:
                total += s * s
    return total


def objective_columns(params, W):
    """Objective for every column of W at once; used by the grid oracle."""
    quad = params.stats.pi @ (W * W) + params.lam * (W * W).sum(axis=0)
    if params.stats.q_diff.shape[0]:
        hinge = np.maximum(0.0, params.tau - params.stats.q_diff @ W)
        quad = quad + (hinge * hinge).sum(axis=0)
    return quad


def simplex_grid(n_trees, resolution=1e-3):
    """All simplex points on a regular grid, as columns (only T = 2 or 3)."""
    steps = np.arange(0.0, 1.0 + resolution / 2, resolution)
    if n_trees == 2:
        return np.vstack([steps, 1.0 - steps])
    assert n_trees == 3
    a, b = np.meshgrid(steps, steps, indexing="ij")
    keep = a + b <= 1.0 + 1e-12
    a, b = a[keep], b[keep]
    return np.vstack([a, b, 1.0 - a - b])


def grid_argmin(params, resolution=1e-3, chunk=100_000):
    W = simplex_grid(params.n_trees, resolution)
    best_val = np.inf
    best = None
    for start in range(0, W.shape[1], chunk):
        block = W[:, start : start + chunk]
        vals = objective_columns(params, block)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best = block[:, j]
    return best


def random_simplex(rng, n):
    return rng.dirichlet(np.ones(n))


class TestObjective:
    def test_zero_when_both_terms_vanish(self):
        # one same-class pair of identical distributions, one different-class
        # pair whose weighted Manhattan distance exceeds the margin
        stats = stats_from_rows(
            np.array([0, 1], dtype=np.uint8),
            np.array([[0.0, 0.0], [2.0, 2.0]]),
            np.array([[0.0, 0.0], [2.0, 2.0]]),
        )
        params = ObjectiveParams(stats, tau=0.5, lam=0.0)
        assert objective(params, [0.5, 0.5]) == 0.0

    def test_pure_regularizer_value(self):
        params = ObjectiveParams(no_pairs(4), tau=0.5, lam=1.0)
        assert objective(params, np.full(4, 0.25)) == pytest.approx(0.25, abs=1e-15)

    def test_matches_independent_loop_implementation(self):
        rng = np.random.default_rng(0)
        for k in range(12):
            n_trees = int(rng.integers(2, 6))
            rows = pair_rows(rng, n_trees, 2, 1 + k % 3)
            tau = float(rng.uniform(0.2, 1.0))
            lam = float(rng.uniform(0.0, 0.2))
            params = ObjectiveParams(stats_from_rows(*rows), tau, lam)
            w = random_simplex(rng, n_trees)
            expected = objective_loops(*rows, tau, lam, w)
            assert objective(params, w) == pytest.approx(expected, rel=1e-12)

    def test_tiny_two_tree_instance(self):
        # T = 2, three pairs
        rng = np.random.default_rng(5)
        rows = pair_rows(rng, 2, 2, 1)
        params = ObjectiveParams(stats_from_rows(*rows), 0.5, 0.01)
        w = np.array([0.3, 0.7])
        assert objective(params, w) == pytest.approx(
            objective_loops(*rows, 0.5, 0.01, w), rel=1e-12
        )

    def test_length_mismatch(self):
        params = ObjectiveParams(no_pairs(3), 0.5, 0.0)
        with pytest.raises(ValueError, match="shape"):
            objective(params, [0.5, 0.5])

    def test_bad_hyperparameters(self):
        with pytest.raises(ValueError, match="tau"):
            ObjectiveParams(no_pairs(2), tau=0.0, lam=0.0)
        with pytest.raises(ValueError, match="lambda"):
            ObjectiveParams(no_pairs(2), tau=0.5, lam=-1.0)
        # ints too large for a float
        with pytest.raises(ValueError, match="tau"):
            ObjectiveParams(no_pairs(2), tau=10**400, lam=0.0)
        with pytest.raises(ValueError, match="lambda"):
            ObjectiveParams(no_pairs(2), tau=0.5, lam=10**400)

    def test_convexity_sampling(self):
        rng = np.random.default_rng(1)
        stats = pair_instance(rng, 4, 6, 6)
        params = ObjectiveParams(stats, 0.6, 0.02)
        for _ in range(100):
            w1 = random_simplex(rng, 4)
            w2 = random_simplex(rng, 4)
            theta = rng.uniform()
            mid = theta * w1 + (1 - theta) * w2
            bound = theta * objective(params, w1) + (1 - theta) * objective(params, w2)
            assert objective(params, mid) <= bound + 1e-9


def finite_difference_gradient(params, w, h=1e-6):
    out = np.empty_like(w)
    for t in range(w.size):
        up = w.copy()
        dn = w.copy()
        up[t] += h
        dn[t] -= h
        out[t] = (objective(params, up) - objective(params, dn)) / (2 * h)
    return out


def away_from_kinks(params, w, margin=1e-4):
    if params.stats.q_diff.shape[0] == 0:
        return True
    return np.abs(params.tau - params.stats.q_diff @ w).min() > margin


class TestGradient:
    def test_no_different_pairs_closed_form(self):
        stats = same_class_only_stats([[0.5, 1.5, 0.25]])
        params = ObjectiveParams(stats, tau=0.5, lam=0.0)
        w = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(gradient(params, w), 2 * w * stats.pi)

    def test_vertex_closed_form(self):
        stats = same_class_only_stats([[0.7, 0.2]])
        params = ObjectiveParams(stats, tau=0.5, lam=0.0)
        np.testing.assert_allclose(
            gradient(params, np.array([1.0, 0.0])), [2 * 0.7, 0.0]
        )

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 10:
            n_trees = int(rng.integers(2, 7))
            stats = pair_instance(rng, n_trees, 4, 4)
            params = ObjectiveParams(
                stats, float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.0, 0.1))
            )
            w = random_simplex(rng, n_trees)
            if not away_from_kinks(params, w):
                continue
            fd = finite_difference_gradient(params, w)
            an = gradient(params, w)
            denom = max(1.0, float(np.linalg.norm(an)))
            assert np.linalg.norm(fd - an) / denom < 1e-5
            checked += 1

    def test_length_mismatch(self):
        params = ObjectiveParams(no_pairs(3), 0.5, 0.0)
        with pytest.raises(ValueError, match="shape"):
            gradient(params, [1.0])


def record_projections(monkeypatch):
    """Patch weightopt.project_simplex to list every point it returns."""
    points = []

    def recording(v):
        points.append(project(v))
        return points[-1]

    project = weightopt.project_simplex
    monkeypatch.setattr(weightopt, "project_simplex", recording)
    return points


def separating_instance(rng, n_trees=10, n_diff=3000):
    """Rows shaped like a training set's different-class pairs, which fully
    grown trees tell apart (Manhattan difference 2) or not (0), and a pi as
    large as summed same-class differences make it."""
    told_apart = rng.beta(5.0, 2.0, (n_diff, 1))
    return PairStats(
        pi=rng.uniform(50.0, 150.0, n_trees),
        q_diff=np.asfortranarray(2.0 * (rng.random((n_diff, n_trees)) < told_apart)),
        n_same=2000,
    )


def certified(params, solution, slack=1e-12):
    """Whether the solution's gap bounds J there minus J at the reference point."""
    w_ref = reference_solve(params, tol=1e-9)
    excess = solution.objective - objective(params, w_ref)
    return excess <= solution.gap + slack * solution.objective


class TestSolveWeights:
    def test_singleton_simplex(self):
        params = ObjectiveParams(no_pairs(1), 0.5, 1.0)
        for max_iterations in (1, 10, 500):
            w, gap, _, steps = solve_weights(params, max_iterations)
            np.testing.assert_array_equal(w, [1.0])
            assert gap == 0.0 and steps == 0

    def test_pure_regularizer_is_solved_at_uniform(self):
        # the gradient at uniform is a full tie, so the start is certified optimal
        for n_trees in (2, 4, 7):
            params = ObjectiveParams(no_pairs(n_trees), 0.5, 1.0)
            w, gap, _, steps = solve_weights(params, 2000)
            np.testing.assert_array_equal(w, uniform_weights(n_trees))
            assert gap <= SOLVE_TOL * objective(params, w) and steps == 0

    def test_matches_reference_on_small_instance(self):
        rng = np.random.default_rng(3)
        params = ObjectiveParams(pair_instance(rng, 3, 2, 2), 0.5, 0.01)
        solution = solve_weights(params, 2000)
        assert solution.gap <= SOLVE_TOL * solution.objective
        assert certified(params, solution)

    def test_certificate_bounds_the_distance_to_the_minimizer(self):
        # with mu > 0, ||w - w*||^2 <= 2 gap / mu; the reference point is
        # itself within sqrt(2 gap_ref / mu) of w*, its gap_ref at most 1e-9
        rng = np.random.default_rng(30)
        for _ in range(20):
            n_trees = int(rng.integers(2, 9))
            stats = pair_instance(rng, n_trees, int(rng.integers(2, 12)), 8)
            params = ObjectiveParams(stats, float(rng.uniform(0.3, 1.0)), 0.02)
            mu = 2.0 * float((params.lam + stats.pi).min())
            w, gap, _, _ = solve_weights(params, 2000)
            w_ref = reference_solve(params, tol=1e-9)
            distance = np.linalg.norm(w - w_ref)
            assert distance <= np.sqrt(2 * gap / mu) + np.sqrt(2e-9 / mu) + 1e-12

    def test_stops_at_the_certified_tolerance(self):
        params = ObjectiveParams(separating_instance(np.random.default_rng(25)), 0.5, 0.01)
        w, gap, value, steps = solve_weights(params, 2000)
        assert 0 < steps < 100 and steps % CHECK_PERIOD == 0
        assert gap <= SOLVE_TOL * value
        w_fw, _ = plain_frank_wolfe(params, 2000)
        assert value <= objective(params, w_fw)
        # a cap below the steps needed ends the solve there, uncertified
        capped = solve_weights(params, 7)
        assert capped.steps == 7 and capped.gap > SOLVE_TOL * capped.objective

    def test_never_above_uniform(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            stats = pair_instance(rng, int(rng.integers(2, 8)), 6, 6)
            params = ObjectiveParams(stats, float(rng.uniform(0.3, 1.0)), 0.01)
            uniform = objective(params, uniform_weights(params.n_trees))
            for max_iterations in (1, 2, 5, 6, 50):
                assert solve_weights(params, max_iterations).objective <= uniform

    def test_simplex_preserved_at_every_iterate(self, monkeypatch):
        rng = np.random.default_rng(4)
        params = ObjectiveParams(pair_instance(rng, 5, 5, 5), 0.5, 0.01)
        points = record_projections(monkeypatch)
        w = solve_weights(params, 500).weights
        assert len(points) > 1
        for v in points + [w]:
            assert abs(v.sum() - 1.0) <= 1e-12 and v.min() >= 0.0

    def test_returned_objective_is_objective_at_the_result(self):
        rng = np.random.default_rng(6)
        params = [
            ObjectiveParams(pair_instance(rng, 5, 6, n_diff), 0.5, lam)
            for n_diff, lam in ((6, 0.01), (40, 0.0))
        ] + [ObjectiveParams(no_pairs(5), 0.5, 0.3)]
        for max_iterations in (1, 150):
            for p in params:
                w, gap, value, _ = solve_weights(p, max_iterations)
                assert value == objective(p, w) and gap >= 0.0

    def test_bad_iteration_count(self):
        params = ObjectiveParams(no_pairs(2), 0.5, 1.0)
        with pytest.raises(ValueError):
            solve_weights(params, 0)

    def test_zero_mu_uses_the_frank_wolfe_bound(self):
        """With lambda = 0 and a tree whose same-class pairs never differ,
        mu = 0: the bound is Frank-Wolfe's, the limit of the strong-convexity
        bound as mu -> 0, and the solve is still deterministic."""
        rng = np.random.default_rng(31)
        for _ in range(5):
            stats = pair_instance(rng, 4, 5, 6)
            stats = replace(stats, pi=np.concatenate([[0.0], stats.pi[1:]]))
            params = ObjectiveParams(stats, 0.8, 0.0)
            w = random_simplex(rng, 4)
            value, grad = weightopt._value_and_gradient(params, w)
            frank_wolfe_bound = weightopt._lower_bound(value, grad, w, 0.0)
            assert frank_wolfe_bound == pytest.approx(value + grad.min() - grad @ w, rel=1e-12)
            near = weightopt._lower_bound(value, grad, w, 1e-12)
            assert near == pytest.approx(frank_wolfe_bound, rel=1e-9, abs=1e-12)
            first, again = solve_weights(params, 2000), solve_weights(params, 2000)
            assert np.array_equal(first.weights, again.weights)
            assert first[1:] == again[1:]
            assert certified(params, first)

    def test_gap_decays(self):
        # a larger cap runs the same path further: the lowest J checked only
        # falls and the highest bound only rises
        rng = np.random.default_rng(5)
        for _ in range(5):
            stats = pair_instance(rng, int(rng.integers(2, 8)), 5, 5)
            params = ObjectiveParams(stats, 0.5, 0.01)
            gaps = [solve_weights(params, cap).gap for cap in (1, 5, 20, 2000)]
            assert gaps == sorted(gaps, reverse=True) and gaps[-1] >= 0.0

    @pytest.mark.parametrize("n_trees", [2, 6])
    def test_hinge_only_instance(self, n_trees):
        """No same-class pairs and lambda = 0: only the hinge has curvature,
        so the first step size is a guess that backtracking corrects."""
        rng = np.random.default_rng(32)
        z, P, Q = pair_rows(rng, n_trees, 0, 30)
        params = ObjectiveParams(stats_from_rows(z, P, Q), 1.5, 0.0)
        assert not params.stats.pi.any()
        solution = solve_weights(params, 2000)
        assert solution.objective > 0.0
        assert solution.gap <= SOLVE_TOL * solution.objective
        assert certified(params, solution)


def first_vertex(pi):
    """The reference Frank-Wolfe's first step (size 1) from uniform lands on
    its LMO vertex.

    Without different-class pairs and with lambda = 0 the gradient at uniform
    is 2 pi / T, so the vertex is the one-hot at the smallest entry of pi.
    """
    params = ObjectiveParams(same_class_only_stats([pi]), 0.5, 0.0)
    return plain_frank_wolfe(params, 1)[0]


class TestLmoVertex:
    """The FW-2000 reference that solve_weights must match or beat steps to
    the vertex at the smallest gradient component, ties to the lowest index."""

    def test_argmin(self):
        np.testing.assert_array_equal(first_vertex([3.0, 0.5, 2.0]), [0, 1, 0])

    def test_tie_lowest_index(self):
        np.testing.assert_array_equal(first_vertex([5.0, 5.0]), [1, 0])

    def test_full_tie(self):
        # no pairs: the gradient at uniform is a full tie, so ties go to e_0
        params = ObjectiveParams(no_pairs(3), 0.5, 1.0)
        np.testing.assert_array_equal(plain_frank_wolfe(params, 1)[0], [1.0, 0.0, 0.0])


# caps that end a solve before, at and after its first two certificates
# (every CHECK_PERIOD = 5 steps), and one it stops well within
ITERATION_CAPS = [1, 2, 4, 5, 6, 9, 10, 11, 2000]


def spread_instance(rng, n_trees, active_share=0.05, n_diff=3000):
    """Pair statistics and a tau at which about ``active_share`` of rows are
    hinge-active at uniform weights: each pair's own scale spreads the
    residuals, as pairs of near and of far instances do."""
    scale = rng.uniform(0.0, 2.0, (n_diff, 1))
    q_diff = np.minimum(2.0, scale * rng.uniform(0.5, 1.5, (n_diff, n_trees)))
    stats = PairStats(
        pi=rng.uniform(0.5, 1.5, n_trees),
        q_diff=np.asfortranarray(q_diff),
        n_same=20,
    )
    return stats, float(np.quantile(q_diff.mean(axis=1), active_share))


def pair_stat_forests():
    """Six-tree forests' statistics as the cascade forms them: all pairs, two
    pair budgets, no pairs, and a spread instance; each with its lambda."""
    rng = np.random.default_rng(24)
    spread, tau = spread_instance(rng, 6)
    dists = rng.dirichlet(np.ones(3), size=(40, 6))
    labels = rng.integers(3, size=40)
    return {
        "spread": (spread, tau, 0.01),
        "all-pairs": (compute_pair_stats(dists, labels), tau, 0.01),
        "budget-150": (compute_pair_stats(dists, labels, 150, rng), tau, 0.0),
        "no-pairs": (no_pairs(6), tau, 0.2),
        "budget-400": (compute_pair_stats(dists, labels, 400, rng), tau, 0.05),
    }


class TestCertifiedSolves:
    """Every solve's gap bounds its distance in J from the minimum, at any
    cap, whatever the layout of q_diff and the instance's shape."""

    @pytest.mark.parametrize("max_iterations", ITERATION_CAPS)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gap_certifies_at_every_cap(self, max_iterations, order):
        rng = np.random.default_rng(20)
        for _ in range(3):
            n_trees = int(rng.integers(2, 9))
            stats = pair_instance(rng, n_trees, 8, 12)
            assert stats.q_diff.flags.c_contiguous
            params = ObjectiveParams(stats, float(rng.uniform(0.3, 1.2)), 0.01)
            laid_out = replace(
                params, stats=replace(stats, q_diff=np.asarray(stats.q_diff, order=order))
            )
            solution = solve_weights(laid_out, max_iterations)
            w, gap, value, steps = solution
            assert abs(w.sum() - 1.0) <= 1e-12 and w.min() >= 0.0
            assert value == objective(laid_out, w)
            assert value <= objective(laid_out, uniform_weights(n_trees))
            assert steps == max_iterations or gap <= SOLVE_TOL * value
            assert certified(laid_out, solution)
            # the layout changes rounding in q_diff @ w, not the path
            row_major = solve_weights(params, max_iterations)
            np.testing.assert_allclose(w, row_major.weights, rtol=0, atol=1e-12)
            assert steps == row_major.steps

    @pytest.mark.parametrize("n_trees", [1, 2, 3, 4, 5, 8, 13, 21, 34])
    def test_quadratic_only_matches_closed_form(self, n_trees):
        """Without different-class pairs J is sum (lambda + pi_t) w_t^2, whose
        minimizer over the simplex is proportional to 1 / (lambda + pi_t)."""
        rng = np.random.default_rng(100 + n_trees)
        stats = same_class_only_stats(rng.uniform(0.0, 2.0, (3, n_trees)))
        params = ObjectiveParams(stats, 0.5, 0.01)
        pull = params.lam + stats.pi
        w_star = (1.0 / pull) / (1.0 / pull).sum()
        w, gap, value, _ = solve_weights(params, 2000)
        assert gap <= SOLVE_TOL * value
        assert 0.0 <= value - objective(params, w_star) <= gap + 1e-15
        mu = 2.0 * float(pull.min())
        assert np.sum((w - w_star) ** 2) <= 2.0 * gap / mu + 1e-15

    @pytest.mark.parametrize(
        "name", ["spread", "all-pairs", "budget-150", "no-pairs", "budget-400"]
    )
    def test_pair_stat_forests_are_solved_to_tolerance(self, name):
        stats, tau, lam = pair_stat_forests()[name]
        params = ObjectiveParams(stats, tau, lam)
        solution = solve_weights(params, 2000)
        assert solution.gap <= SOLVE_TOL * solution.objective
        assert certified(params, solution)
        w_fw, _ = plain_frank_wolfe(params, 2000)
        assert solution.objective <= objective(params, w_fw)
        again = solve_weights(params, 2000)
        assert np.array_equal(again.weights, solution.weights)
        assert again[1:] == solution[1:]

    @pytest.mark.parametrize("active_share", [0.05, 0.5])
    @pytest.mark.parametrize("n_trees", [10, 100])
    def test_spread_instances_beat_frank_wolfe(self, n_trees, active_share):
        stats, tau = spread_instance(np.random.default_rng(21), n_trees, active_share)
        params = ObjectiveParams(stats, tau, 0.01)
        w, gap, value, steps = solve_weights(params, 2000)
        assert steps < 2000 and gap <= SOLVE_TOL * value
        w_fw, _ = plain_frank_wolfe(params, 2000)
        assert value <= objective(params, w_fw)

    def test_rows_within_a_hair_of_tau(self):
        """Rows that read every tree alike have the same residual at every
        simplex point; just above tau they add nothing, just below they add
        a constant (1e-6 tau)^2 each.  Neither moves the minimizer."""
        n_trees, tau, eps = 4, 0.5, 1e-6
        rng = np.random.default_rng(22)
        z, P, Q = pair_rows(rng, n_trees, 10, 40)
        base = ObjectiveParams(stats_from_rows(z, P, Q), tau, 0.01)
        hair = np.outer(tau * (1 + eps * np.array([-1, -1, -1, 1, 1, 1])), np.ones(n_trees))
        stats = replace(base.stats, q_diff=np.vstack([base.stats.q_diff, hair]))
        params = ObjectiveParams(stats, tau, 0.01)
        w = uniform_weights(n_trees)
        added = objective(params, w) - objective(base, w)
        assert added == pytest.approx(3 * (eps * tau) ** 2, rel=1e-3)
        solution, expected = solve_weights(params, 2000), solve_weights(base, 2000)
        assert certified(params, solution)
        np.testing.assert_allclose(solution.weights, expected.weights, rtol=0, atol=1e-6)
        # the same J up to the constant, so the same certified minimum
        slack = 1e-12 * solution.objective
        assert solution.objective - added <= expected.objective + solution.gap + slack


class TestProjectSimplex:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-15)

    def test_is_nearest_simplex_point(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.normal(scale=2.0, size=5)
            proj = project_simplex(v)
            assert proj.min() >= 0.0
            assert proj.sum() == pytest.approx(1.0, abs=1e-12)
            base = np.linalg.norm(v - proj)
            for _ in range(40):
                other = random_simplex(rng, 5)
                assert base <= np.linalg.norm(v - other) + 1e-12


class TestReferenceSolve:
    def test_pure_regularizer_gives_uniform(self):
        params = ObjectiveParams(no_pairs(6), 0.5, 1.0)
        np.testing.assert_allclose(reference_solve(params, tol=1e-12), 1 / 6)

    def test_matches_grid_search_t2(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            stats = pair_instance(rng, 2, 4, 4)
            params = ObjectiveParams(stats, 0.5, 0.05)
            w_ref = reference_solve(params, tol=1e-9)
            w_grid = grid_argmin(params)
            np.testing.assert_allclose(w_ref, w_grid, atol=2e-3)

    def test_matches_grid_search_t3(self):
        rng = np.random.default_rng(9)
        stats = pair_instance(rng, 3, 5, 5)
        params = ObjectiveParams(stats, 0.5, 0.05)
        w_ref = reference_solve(params, tol=1e-9)
        w_grid = grid_argmin(params)
        np.testing.assert_allclose(w_ref, w_grid, atol=2e-3)

    def test_column_objective_matches_scalar(self):
        # the grid oracle's vectorized evaluator against the scalar objective
        rng = np.random.default_rng(10)
        stats = pair_instance(rng, 3, 4, 4)
        params = ObjectiveParams(stats, 0.4, 0.02)
        W = np.column_stack([random_simplex(rng, 3) for _ in range(20)])
        vals = objective_columns(params, W)
        for col, val in zip(W.T, vals):
            assert objective(params, col) == pytest.approx(val, rel=1e-12)

    def test_midpoint_convexity_spot_check(self):
        rng = np.random.default_rng(12)
        stats = pair_instance(rng, 4, 5, 5)
        params = ObjectiveParams(stats, 0.5, 0.02)
        for _ in range(20):
            w1 = random_simplex(rng, 4)
            w2 = random_simplex(rng, 4)
            mid = 0.5 * (w1 + w2)
            bound = 0.5 * (objective(params, w1) + objective(params, w2))
            assert objective(params, mid) <= bound + 1e-12

    def test_nonconvergence_error_carries_gap(self):
        rng = np.random.default_rng(11)
        stats = pair_instance(rng, 4, 5, 5)
        params = ObjectiveParams(stats, 0.5, 0.01)
        with pytest.raises(ConvergenceError, match="gap"):
            reference_solve(params, tol=1e-18, max_iter=3)

    def test_size_cap(self):
        params = ObjectiveParams(no_pairs(65), 0.5, 1.0)
        with pytest.raises(ValueError, match="64"):
            reference_solve(params)

from dataclasses import replace

import numpy as np
import pytest

from disdf import weightopt
from disdf.pairstats import PairStats, compute_pair_stats
from disdf.weightopt import ObjectiveParams, frank_wolfe, gradient, objective
from tests.oracles import (
    ConvergenceError,
    plain_frank_wolfe,
    project_simplex,
    reference_solve,
)


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


def first_vertex(pi):
    """Frank-Wolfe's first step (size 1) from uniform lands on the LMO vertex.

    Without different-class pairs and with lambda = 0 the gradient at uniform
    is 2 pi / T, so the vertex is the one-hot at the smallest entry of pi.
    """
    params = ObjectiveParams(same_class_only_stats([pi]), 0.5, 0.0)
    [(w, _, _)] = frank_wolfe([params], 1)
    return w


class TestLmoVertex:
    def test_argmin(self):
        np.testing.assert_array_equal(first_vertex([3.0, 0.5, 2.0]), [0, 1, 0])

    def test_tie_lowest_index(self):
        np.testing.assert_array_equal(first_vertex([5.0, 5.0]), [1, 0])

    def test_full_tie(self):
        # no pairs: the gradient at uniform is a full tie, so ties go to e_0
        params = ObjectiveParams(no_pairs(3), 0.5, 1.0)
        [(w, _, _)] = frank_wolfe([params], 1)
        np.testing.assert_array_equal(w, [1.0, 0.0, 0.0])


class TestFrankWolfe:
    def test_singleton_simplex(self):
        params = ObjectiveParams(no_pairs(1), 0.5, 1.0)
        for n_iterations in (1, 10, 500):
            [(w, gap, _)] = frank_wolfe([params], n_iterations)
            np.testing.assert_allclose(w, [1.0])
            assert gap == pytest.approx(0.0, abs=1e-12)

    def test_pure_regularizer_reaches_uniform(self):
        # the per-component error of the final iterate scales with the last
        # step size, so the 1e-3 box needs S = 500 at T = 2 and S = 2000 above
        params = ObjectiveParams(no_pairs(2), 0.5, 1.0)
        [(w, _, _)] = frank_wolfe([params], 500)
        np.testing.assert_allclose(w, 0.5, atol=1e-3)
        for n_trees in (4, 7):
            params = ObjectiveParams(no_pairs(n_trees), 0.5, 1.0)
            [(w, _, _)] = frank_wolfe([params], 2000)
            np.testing.assert_allclose(w, 1.0 / n_trees, atol=1e-3)

    def test_matches_reference_on_small_instance(self):
        rng = np.random.default_rng(3)
        stats = pair_instance(rng, 3, 2, 2)
        params = ObjectiveParams(stats, 0.5, 0.01)
        [(w_fw, _, _)] = frank_wolfe([params], 2000)
        w_ref = reference_solve(params, tol=1e-9)
        assert objective(params, w_fw) - objective(params, w_ref) <= 1e-3

    def test_simplex_preserved_at_every_iterate(self):
        rng = np.random.default_rng(4)
        stats = pair_instance(rng, 5, 5, 5)
        params = ObjectiveParams(stats, 0.5, 0.01)
        iterates = []
        frank_wolfe([params], 500, callback=lambda s, W, gaps: iterates.append(W[0]))
        assert len(iterates) == 500
        for w in iterates:
            assert abs(w.sum() - 1.0) <= 1e-12
            assert w.min() >= -1e-12

    def test_gap_decays(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            stats = pair_instance(rng, int(rng.integers(2, 8)), 5, 5)
            params = ObjectiveParams(stats, 0.5, 0.01)
            [(_, gap_short, _)] = frank_wolfe([params], 20)
            [(_, gap_long, _)] = frank_wolfe([params], 2000)
            assert 0.0 <= gap_long <= gap_short

    def test_bad_iteration_count(self):
        params = ObjectiveParams(no_pairs(2), 0.5, 1.0)
        with pytest.raises(ValueError):
            frank_wolfe([params], 0)

    def test_returned_objective_is_objective_at_the_result(self):
        rng = np.random.default_rng(6)
        params = [
            ObjectiveParams(pair_instance(rng, 5, 6, n_diff), 0.5, lam)
            for n_diff, lam in ((6, 0.01), (40, 0.0))
        ] + [ObjectiveParams(no_pairs(5), 0.5, 0.3)]
        for n_iterations in (1, 150):
            for p, (w, gap, j) in zip(params, frank_wolfe(params, n_iterations)):
                assert j == objective(p, w)
                g = gradient(p, w)
                assert gap == w @ g - g.min()

    def test_forests_must_share_trees_and_tau(self):
        params = ObjectiveParams(no_pairs(3), 0.5, 1.0)
        with pytest.raises(ValueError, match="share"):
            frank_wolfe([params, ObjectiveParams(no_pairs(4), 0.5, 1.0)], 10)
        with pytest.raises(ValueError, match="share"):
            frank_wolfe([params, ObjectiveParams(no_pairs(3), 0.6, 1.0)], 10)
        with pytest.raises(ValueError, match="forest"):
            frank_wolfe([], 10)


def run_recorded(params, n_iterations):
    """One lockstep frank_wolfe over params: per forest, its weights, gap and
    every (step, iterate, gap) of its own that the callback saw."""
    seen = []
    results = frank_wolfe(params, n_iterations, callback=lambda *step: seen.append(step))
    return [
        (w, gap, [(s, W[f], gaps[f]) for s, W, gaps in seen])
        for f, (w, gap, _) in enumerate(results)
    ]


def run_plain(params, n_iterations):
    """The plain solver's result plus every (step, iterate, gap) it saw."""
    seen = []
    w, gap = plain_frank_wolfe(params, n_iterations, callback=lambda *step: seen.append(step))
    return w, gap, seen


def spread_instance(rng, n_trees, n_diff=3000):
    """Pair statistics and a tau at which about 5% of rows are hinge-active at
    uniform weights: each pair's own scale spreads the residuals, as pairs of
    near and of far instances do."""
    scale = rng.uniform(0.0, 2.0, (n_diff, 1))
    q_diff = np.minimum(2.0, scale * rng.uniform(0.5, 1.5, (n_diff, n_trees)))
    stats = PairStats(
        pi=rng.uniform(0.5, 1.5, n_trees),
        q_diff=np.asfortranarray(q_diff),
        n_same=20,
    )
    return stats, float(np.quantile(q_diff.mean(axis=1), 0.05))


def assert_identical(got, expected):
    """Two recorded runs agree bit for bit."""
    (w, gap, seen), (w_ref, gap_ref, seen_ref) = got, expected
    assert np.array_equal(w, w_ref) and gap == gap_ref
    assert len(seen) == len(seen_ref)
    for (s, w_s, gap_s), (s_ref, w_ref_s, gap_ref_s) in zip(seen, seen_ref):
        assert s == s_ref and np.array_equal(w_s, w_ref_s) and gap_s == gap_ref_s


def assert_same_run(got, expected):
    (w, gap, seen), (w_ref, gap_ref, seen_ref) = got, expected
    np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-12)
    assert gap == pytest.approx(gap_ref, rel=1e-9, abs=1e-12)
    assert [s for s, _, _ in seen] == [s for s, _, _ in seen_ref]
    for (_, w_s, gap_s), (_, w_ref_s, gap_ref_s) in zip(seen, seen_ref):
        np.testing.assert_allclose(w_s, w_ref_s, rtol=0, atol=1e-12)
        assert gap_s == pytest.approx(gap_ref_s, rel=1e-9, abs=1e-12)


# 100 is RENORM_PERIOD and 120 and 144 start screening windows: these cross
# the steps that recompute q_diff @ w
ITERATION_COUNTS = [1, 99, 100, 101, 119, 120, 121, 144, 350]


def record_screens(monkeypatch):
    """Patch weightopt._screen to map each window's first step to the share
    of rows it keeps."""
    shares = {}

    def recording(q_diff, residual, tau, s0, last):
        q, r = screen(q_diff, residual, tau, s0, last)
        shares[s0] = q.shape[0] / q_diff.shape[0]
        return q, r

    screen = weightopt._screen
    monkeypatch.setattr(weightopt, "_screen", recording)
    return shares


class TestCarriedResidual:
    """frank_wolfe carries q_diff @ w and steps over the rows its screen keeps;
    the plain solver recomputes the whole gradient."""

    @pytest.mark.parametrize("n_iterations", ITERATION_COUNTS)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_plain_solver(self, n_iterations, order):
        rng = np.random.default_rng(20)
        for _ in range(3):
            n_trees = int(rng.integers(2, 9))
            stats = pair_instance(rng, n_trees, 8, 12)
            assert stats.q_diff.flags.c_contiguous
            params = ObjectiveParams(stats, float(rng.uniform(0.3, 1.2)), 0.01)
            laid_out = replace(stats, q_diff=np.asarray(stats.q_diff, order=order))
            [got] = run_recorded([replace(params, stats=laid_out)], n_iterations)
            assert_same_run(got, run_plain(params, n_iterations))

    @pytest.mark.parametrize("n_iterations", ITERATION_COUNTS)
    def test_empty_stats_match_plain_solver(self, n_iterations):
        params = ObjectiveParams(no_pairs(4), 0.5, 0.1)
        [got] = run_recorded([params], n_iterations)
        assert_same_run(got, run_plain(params, n_iterations))

    @pytest.mark.parametrize("n_iterations", [350, 2000])
    @pytest.mark.parametrize("n_trees", [10, 100])
    def test_screened_instances_match_plain_solver(
        self, n_trees, n_iterations, monkeypatch
    ):
        stats, tau = spread_instance(np.random.default_rng(21), n_trees)
        params = ObjectiveParams(stats, tau, 0.01)
        shares = record_screens(monkeypatch)
        [got] = run_recorded([params], n_iterations)
        assert_same_run(got, run_plain(params, n_iterations))
        assert shares[0] == 1.0
        assert max(share for s0, share in shares.items() if s0) < 0.2

    def test_windows_from_step_100_keep_under_half_of_train_pairs(self, monkeypatch):
        """On rows shaped like a training set's different-class pairs, which
        fully grown trees tell apart (Manhattan difference 2) or not (0), every
        window from step 100 on screens out most rows.  A screen over a fixed
        100-step window keeps them all from step 100 to 199."""
        rng = np.random.default_rng(25)
        n_diff, T = 3000, 10
        # per pair, the share of trees that tell its two classes apart
        told_apart = rng.beta(5.0, 2.0, (n_diff, 1))
        stats = PairStats(
            pi=rng.uniform(50.0, 150.0, T),
            q_diff=np.asfortranarray(2.0 * (rng.random((n_diff, T)) < told_apart)),
            n_same=2000,
        )
        params = ObjectiveParams(stats, 0.5, 0.01)
        shares = record_screens(monkeypatch)
        [got] = run_recorded([params], 600)
        assert_same_run(got, run_plain(params, 600))
        assert shares[0] == 1.0
        late = {s0: share for s0, share in shares.items() if s0 >= 100}
        assert sorted(late) == [100, 120, 144, 172, 200, 240, 288, 300, 360, 400, 480, 500]
        assert max(late.values()) < 0.5

    def test_rows_within_a_hair_of_tau(self, monkeypatch):
        """Screened rows whose residuals end the window just above tau, and
        candidates that end it just below, where their hinge is 1e-6 tau."""
        T, tau, eps = 4, 0.5, 1e-6
        s0 = 200
        last = weightopt._window_last(s0)
        assert last == 239
        rng = np.random.default_rng(22)
        # rows always active on trees 1..3, and far rows the screen drops
        main = np.column_stack([np.zeros(40), rng.uniform(0, 0.4, (40, T - 1))])
        far = np.column_stack([np.zeros(400), np.full((400, T - 1), 2.0)])
        # hair rows read tree 0 only: at step 1 they pull it in, then the main
        # rows hold it off, so w_0(s) = 4 / (s (s + 1)) until they act again
        c = tau * last * (last + 1) / 4
        hair = np.zeros((6, T))
        hair[:, 0] = c * (1 + eps * np.array([-1, -1, -1, 1, 1, 1]))
        stats = PairStats(
            pi=np.array([1.0, 1.0, 1.2, 0.8]),
            q_diff=np.asfortranarray(np.vstack([main, far, hair])),
            n_same=10,
        )
        params = ObjectiveParams(stats, tau, 0.01)
        expected = run_plain(params, 350)
        residual = np.array([w for _, w, _ in expected[2]]) @ hair.T
        np.testing.assert_allclose(
            residual[last] / tau - 1, hair[:, 0] / c - 1, rtol=0, atol=1e-9
        )
        assert residual[2:last].min() > tau
        shares = record_screens(monkeypatch)
        [got] = run_recorded([params], 350)
        assert_same_run(got, expected)
        assert shares[s0] < 0.5


class TestLockstep:
    """Forests solved together get, bit for bit, what each gets alone."""

    @pytest.mark.parametrize("n_iterations", ITERATION_COUNTS)
    def test_matches_single_forest_solves(self, n_iterations):
        rng = np.random.default_rng(24)
        n_trees = 6
        spread, tau = spread_instance(rng, n_trees)
        dists = rng.dirichlet(np.ones(3), size=(40, n_trees))
        labels = rng.integers(3, size=40)
        forests = [
            spread,
            compute_pair_stats(dists, labels),
            compute_pair_stats(dists, labels, pair_budget=150, rng=rng),
            no_pairs(n_trees),
            compute_pair_stats(dists, labels, pair_budget=400, rng=rng),
        ]
        params = [
            ObjectiveParams(stats, tau, lam)
            for stats, lam in zip(forests, (0.01, 0.01, 0.0, 0.2, 0.05))
        ]
        assert len({p.stats.q_diff.shape[0] for p in params}) == len(params)
        results = frank_wolfe(params, n_iterations)
        together = run_recorded(params, n_iterations)
        for p, (w, gap, j), got in zip(params, results, together):
            [(w_alone, gap_alone, j_alone)] = frank_wolfe([p], n_iterations)
            assert np.array_equal(w, w_alone)
            assert (gap, j) == (gap_alone, j_alone)
            # a callback does not change the path
            assert np.array_equal(got[0], w)
            [alone] = run_recorded([p], n_iterations)
            assert_identical(got, alone)


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

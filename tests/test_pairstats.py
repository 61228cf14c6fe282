import os
import tracemalloc
import uuid

import numpy as np
import pytest

from disdf import cascade, pairstats
from disdf.cascade import train_cascade
from disdf.errors import ConfigError, DegeneratePairsError
from disdf.pairstats import compute_pair_stats
from disdf.weightopt import ObjectiveParams, solve_weights
from tests.test_cascade import blobs, fast_cfg, needs_fork


def random_dists(rng, n, n_trees, num_classes):
    """Valid per-tree class distributions, shape (n, T, C)."""
    return rng.dirichlet(np.ones(num_classes), size=(n, n_trees))


def brute_force_stats(dists, labels, keep=None):
    """Literal double loop over pairs; the oracle for pi, q_diff and n_same.

    ``keep`` lists the retained pairs by their position in the i < j loop
    order; all pairs are used when it is None.
    """
    n, n_trees, num_classes = dists.shape
    pi = np.zeros(n_trees)
    q_diff = []
    n_same = 0
    position = 0
    for i in range(n):
        for j in range(i + 1, n):
            position += 1
            if keep is not None and position - 1 not in keep:
                continue
            p_row = np.zeros(n_trees)
            q_row = np.zeros(n_trees)
            for t in range(n_trees):
                for c in range(num_classes):
                    d = dists[i, t, c] - dists[j, t, c]
                    p_row[t] += d * d
                    q_row[t] += abs(d)
            if labels[i] == labels[j]:
                pi += p_row
                n_same += 1
            else:
                q_diff.append(q_row)
    return pi, np.array(q_diff), n_same


def assert_matches_oracle(stats, pi, q_diff, n_same):
    assert stats.n_same == n_same
    np.testing.assert_allclose(stats.pi, pi, atol=1e-12)
    np.testing.assert_allclose(stats.q_diff, q_diff, atol=1e-12)


class TestPairValues:
    def test_one_hot_disagreement_and_identical_pairs(self):
        # samples 0,1 share a distribution; sample 2 is a disjoint one-hot
        dists = np.array([[[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]])
        labels = np.array([0, 0, 1])
        stats = compute_pair_stats(dists, labels)
        # the same-class pair (0, 1) is identical; (0, 2) and (1, 2) disagree fully
        assert stats.n_same == 1
        np.testing.assert_allclose(stats.pi, [0.0])
        np.testing.assert_allclose(stats.q_diff, [[2.0], [2.0]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        dists = random_dists(rng, 6, 3, 4)
        labels = np.array([0, 0, 1, 1, 2, 0])
        stats = compute_pair_stats(dists, labels)
        assert_matches_oracle(stats, *brute_force_stats(dists, labels))

    def test_pi_from_two_same_class_pairs(self):
        rng = np.random.default_rng(1)
        dists = random_dists(rng, 4, 1, 3)
        labels = np.array([0, 0, 1, 1])
        stats = compute_pair_stats(dists, labels)
        pi, _, n_same = brute_force_stats(dists, labels)
        assert stats.n_same == n_same == 2
        np.testing.assert_allclose(stats.pi, pi, atol=1e-12)


class TestExactClassSums:
    """q_diff's class sums add in numpy's own order: the same bits as ``sum``."""

    @pytest.mark.parametrize("C", [*range(1, 8), 8, 12])
    def test_class_sum_equals_numpy_sum(self, C):
        rng = np.random.default_rng(C)
        # a whole chunk of pairs and a short last one, of mixed signs and magnitudes
        for P in (pairstats._CHUNK, 37):
            a = rng.normal(size=(P, 3, C)) * 10.0 ** rng.integers(-8, 9, size=(P, 3, C))
            want = a.sum(axis=-1)
            np.testing.assert_array_equal(pairstats.class_sum(a), want)
            out = np.empty((P + 5, 3), order="F")
            pairstats.class_sum(a, out=out[:P])
            np.testing.assert_array_equal(out[:P], want)

    @pytest.mark.parametrize("C", [2, 3, 7, 8, 9, 12])
    def test_q_diff_equals_numpy_sum(self, C):
        rng = np.random.default_rng(C)
        # 2775 pairs, so q_diff spans whole chunks and a short last one
        n = 75
        dists = random_dists(rng, n, 6, C)
        labels = np.arange(n) % C
        stats = compute_pair_stats(dists, labels)
        ii, jj = np.triu_indices(n, k=1)
        diff = labels[ii] != labels[jj]
        assert stats.q_diff.shape[0] > pairstats._CHUNK
        want = np.abs(dists[ii[diff]] - dists[jj[diff]]).sum(axis=2)
        np.testing.assert_array_equal(stats.q_diff, want)


class TestInvariants:
    def test_bounds(self):
        rng = np.random.default_rng(2)
        dists = random_dists(rng, 10, 4, 5)
        labels = rng.integers(3, size=10)
        stats = compute_pair_stats(dists, labels)
        assert stats.q_diff.min() >= 0.0
        assert stats.q_diff.max() <= 2.0 + 1e-12
        assert stats.pi.min() >= 0.0
        # per pair P <= Q * max_c|p_i - p_j| <= Q <= 2 for probability vectors
        assert np.all(stats.pi <= 2.0 * stats.n_same + 1e-12)

    def test_symmetry_under_sample_reversal(self):
        rng = np.random.default_rng(3)
        n = 7
        dists = random_dists(rng, n, 2, 3)
        labels = rng.integers(2, size=n)
        forward = compute_pair_stats(dists, labels)
        backward = compute_pair_stats(dists[::-1], labels[::-1])
        np.testing.assert_allclose(forward.pi, backward.pi, atol=1e-12)
        # pair (i, j) maps to (n-1-j, n-1-i): the rows are reordered, not changed
        def by_rows(q):
            return q[np.lexsort(q.T[::-1])]

        np.testing.assert_array_equal(by_rows(forward.q_diff), by_rows(backward.q_diff))

    def test_z_flags_match_labels(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(3, size=8)
        stats = compute_pair_stats(random_dists(rng, 8, 1, 2), labels)
        same = sum(labels[i] == labels[j] for i in range(8) for j in range(i + 1, 8))
        assert stats.n_same == same
        assert stats.q_diff.shape == (28 - same, 1)


class TestDegenerate:
    def test_single_class_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(DegeneratePairsError, match="same-class"):
            compute_pair_stats(random_dists(rng, 5, 2, 2), np.zeros(5, dtype=int))

    def test_all_distinct_classes_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(DegeneratePairsError, match="different-class"):
            compute_pair_stats(random_dists(rng, 4, 2, 4), np.arange(4))

    def test_single_sample_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(DegeneratePairsError):
            compute_pair_stats(random_dists(rng, 1, 2, 2), np.zeros(1, dtype=int))


class TestPairBudget:
    def test_subsample_size_and_kinds(self):
        rng = np.random.default_rng(8)
        dists = random_dists(rng, 12, 2, 3)
        labels = np.repeat([0, 1], 6)
        stats = compute_pair_stats(dists, labels, pair_budget=9, rng=rng)
        assert stats.n_pairs == 9
        assert stats.n_same > 0 and stats.q_diff.shape[0] > 0

    def test_budget_at_least_full_set_keeps_everything(self):
        rng = np.random.default_rng(9)
        dists = random_dists(rng, 6, 2, 2)
        labels = np.array([0, 0, 0, 1, 1, 1])
        stats = compute_pair_stats(dists, labels, pair_budget=15, rng=rng)
        assert stats.n_pairs == 15
        # nothing is sampled, so no generator is needed
        assert compute_pair_stats(dists, labels, pair_budget=15).n_pairs == 15

    def test_sampling_without_a_generator_rejected(self):
        # an unseeded draw would give a different sample on every call
        dists = random_dists(np.random.default_rng(17), 30, 3, 2)
        labels = np.repeat([0, 1], 15)
        with pytest.raises(ValueError, match="rng"):
            compute_pair_stats(dists, labels, pair_budget=20)

    def test_both_kinds_forced_when_one_is_rare(self):
        rng = np.random.default_rng(10)
        # single different-class pair among 45
        labels = np.array([0] * 9 + [1])
        dists = random_dists(rng, 10, 2, 2)
        for trial in range(20):
            stats = compute_pair_stats(
                dists, labels, pair_budget=4, rng=np.random.default_rng(trial)
            )
            assert stats.n_same > 0 and stats.q_diff.shape[0] > 0

    def test_pi_aggregates_only_retained_pairs(self):
        rng = np.random.default_rng(11)
        dists = random_dists(rng, 8, 3, 2)
        labels = np.repeat([0, 1], 4)
        stats = compute_pair_stats(
            dists, labels, pair_budget=10, rng=np.random.default_rng(12)
        )
        # the sample compute_pair_stats draws: 10 of the 28 pairs, both kinds present
        keep = set(np.random.default_rng(12).choice(28, size=10, replace=False))
        assert stats.n_pairs == 10
        assert_matches_oracle(stats, *brute_force_stats(dists, labels, keep))

    def test_swapped_in_pair_drawn_from_all_pairs_of_its_kind(self):
        rng = np.random.default_rng(15)
        labels = np.array([0] * 9 + [1] * 2)
        dists = random_dists(rng, 11, 2, 2)
        ii, jj = np.triu_indices(11, k=1)
        differ = labels[ii] != labels[jj]
        swapped = 0
        for seed in range(40):
            # the draw written out over all 55 pairs: a budget of 2, and if
            # it holds one kind only, a slot gets a uniform pair of the other
            draw = np.random.default_rng(seed)
            keep = draw.choice(55, size=2, replace=False)
            for value in (False, True):
                if not (differ[keep] == value).any():
                    pool = np.flatnonzero(differ == value)
                    slot = draw.integers(keep.size)
                    keep[slot] = pool[draw.integers(pool.size)]
                    swapped += 1
            stats = compute_pair_stats(
                dists, labels, pair_budget=2, rng=np.random.default_rng(seed)
            )
            expected = brute_force_stats(dists, labels, set(keep))
            assert_matches_oracle(stats, *expected)
        assert swapped > 0

    def test_budget_on_many_rows_forms_only_kept_pairs(self):
        # all 2e8 pairs would need about 12 GiB; the budget keeps that off
        rng = np.random.default_rng(16)
        n = 20_000
        dists = random_dists(rng, n, 2, 2)
        labels = rng.integers(2, size=n)
        stats = compute_pair_stats(dists, labels, pair_budget=100, rng=rng)
        assert stats.n_pairs == 100
        assert stats.n_same > 0 and stats.q_diff.shape[0] > 0


class TestMemoryBound:
    def test_checked_before_pairs_are_formed(self, monkeypatch):
        monkeypatch.setattr(pairstats, "MAX_PAIR_BYTES", 1000)
        rng = np.random.default_rng(13)
        # single-class labels fail only once pairs exist, so this must come first
        with pytest.raises(ConfigError, match="--pair-budget"):
            compute_pair_stats(random_dists(rng, 30, 2, 2), np.zeros(30, dtype=int))

    def test_budget_lowers_the_estimate(self, monkeypatch):
        rng = np.random.default_rng(14)
        dists = random_dists(rng, 12, 40, 2)
        labels = np.repeat([0, 1], 6)
        # all 66 pairs: 2178 index bytes plus 344 per pair, 24882; a budget
        # of 8 forms only the kept pairs: 3848
        monkeypatch.setattr(pairstats, "MAX_PAIR_BYTES", 6000)
        with pytest.raises(ConfigError, match="--pair-budget"):
            compute_pair_stats(dists, labels)
        stats = compute_pair_stats(dists, labels, pair_budget=8, rng=rng)
        assert stats.n_pairs == 8

    @pytest.mark.parametrize("n_trees", [10, 100])
    def test_solve_stays_within_the_charge(self, n_trees):
        # eight classes: nearly every pair is a different-class row of q_diff;
        # instances range from sure of their class to noisy, so residuals spread
        rng = np.random.default_rng(15)
        n = 120
        labels = np.arange(n) % 8
        noise = rng.uniform(0.0, 1.0, (n, 1, 1))
        sure = np.eye(8)[labels][:, None, :]
        dists = (1 - noise) * sure + noise * random_dists(rng, n, n_trees, 8)
        stats = compute_pair_stats(dists, labels)
        tau = float(np.quantile(stats.q_diff.mean(axis=1), 0.3))
        tracemalloc.start()
        try:
            solution = solve_weights(ObjectiveParams(stats, tau, 0.01), 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solution.steps > 0
        assert stats.q_diff.nbytes + peak <= pairstats.pair_bytes(n, n_trees, None)
        # one float per row at a time, no copy of q_diff
        residual = 8 * stats.q_diff.shape[0]
        assert residual <= peak <= 2 * residual


def record_layout(directory):
    """A compute_pair_stats that also leaves one file per call in directory."""

    def recording(*args):
        stats = compute_pair_stats(*args)
        layout = "F" if stats.q_diff.flags.f_contiguous else "not F"
        (directory / f"{os.getpid()}-{uuid.uuid4().hex}").write_text(layout)
        return stats

    return recording


class TestLayout:
    """q_diff is column-major, the layout Frank-Wolfe reads it in."""

    def test_full_pair_set(self):
        rng = np.random.default_rng(17)
        stats = compute_pair_stats(random_dists(rng, 9, 3, 2), np.repeat([0, 1, 2], 3))
        assert stats.q_diff.flags.f_contiguous

    def test_pair_budget(self):
        rng = np.random.default_rng(18)
        labels = np.repeat([0, 1], 5)
        stats = compute_pair_stats(
            random_dists(rng, 10, 3, 2), labels, pair_budget=12, rng=rng
        )
        assert stats.q_diff.shape == (stats.n_pairs - stats.n_same, 3)
        assert stats.q_diff.flags.f_contiguous

    @needs_fork
    def test_inside_two_worker_training(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cascade, "compute_pair_stats", record_layout(tmp_path))
        model = train_cascade(blobs(n=36, m=4, seed=19), fast_cfg(), workers=2)
        records = list(tmp_path.iterdir())
        assert len(records) == sum(len(level.forests) for level in model.levels)
        assert all(r.name.split("-")[0] != str(os.getpid()) for r in records)
        assert all(r.read_text() == "F" for r in records)

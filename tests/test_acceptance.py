"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The benchmark-number
criterion needs the three UCI datasets as CSVs (see scripts/fetch_uci.py);
it is skipped when the files are absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from disdf import cascade
from disdf.cascade import predict, predict_batch, train_cascade
from disdf.config import TrainConfig
from disdf.data import Dataset, load_csv
from disdf.errors import DegeneratePairsError
from disdf.evaluation import repeated_holdout
from disdf.forest import uniform_weights
from disdf.serialize import load_model, save_model
from disdf.weightopt import SOLVE_TOL, ObjectiveParams, gradient, objective, solve_weights
from tests.oracles import forest_tree_dists_batch, plain_frank_wolfe, reference_solve
from tests.test_cascade import blobs, train_recording_pairs
from tests.test_weightopt import (
    away_from_kinks,
    finite_difference_gradient,
    grid_argmin,
    pair_instance,
    random_simplex,
    record_projections,
)


def check(name, ok, detail=""):
    suffix = f" - {detail}" if detail else ""
    print(f"\nacceptance[{name}]: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


# --------------------------------------------------------------------------
# criterion 1: correctness suite
# --------------------------------------------------------------------------


class TestCriterion1Correctness:
    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        checked = 0
        while checked < 50:
            n_trees = int(rng.integers(2, 9))
            stats = pair_instance(
                rng, n_trees, int(rng.integers(2, 12)), int(rng.integers(2, 12))
            )
            params = ObjectiveParams(
                stats, float(rng.uniform(0.25, 1.1)), float(rng.uniform(0.0, 0.1))
            )
            w = random_simplex(rng, n_trees)
            if not away_from_kinks(params, w):
                continue
            fd = finite_difference_gradient(params, w, h=1e-6)
            an = gradient(params, w)
            rel = float(
                np.linalg.norm(fd - an) / max(1.0, np.linalg.norm(an))
            )
            worst = max(worst, rel)
            checked += 1
        check(
            "1a gradient vs central finite differences",
            worst < 1e-5,
            f"worst relative error {worst:.2e} over 50 instances",
        )

    def test_solver_vs_reference(self):
        rng = np.random.default_rng(202)
        worst = -np.inf
        for _ in range(50):
            n_trees = int(rng.integers(2, 9))
            n_same = int(rng.integers(3, 21))
            n_diff = int(rng.integers(3, 21))
            stats = pair_instance(rng, n_trees, n_same, n_diff)
            params = ObjectiveParams(
                stats, float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.005, 0.05))
            )
            _, gap, value, _ = solve_weights(params, 2000)
            w_ref = reference_solve(params, tol=1e-9)
            # J here minus J at the reference, less the certified gap, per unit of J
            worst = max(worst, (value - objective(params, w_ref) - gap) / value)
        check(
            "1b solver vs reference solver within its certified gap",
            worst <= 1e-12,
            f"worst excess over the certified gap {worst:.2e} of J over 50 instances",
        )

    def test_reference_vs_simplex_grid(self):
        rng = np.random.default_rng(303)
        worst = 0.0
        for n_trees in (2, 2, 2, 3, 3, 3):
            stats = pair_instance(rng, n_trees, 5, 5)
            params = ObjectiveParams(stats, 0.5, 0.05)
            w_ref = reference_solve(params, tol=1e-9)
            w_grid = grid_argmin(params, resolution=1e-3)
            worst = max(worst, float(np.abs(w_ref - w_grid).max()))
        check(
            "1c reference solver vs exhaustive simplex grid",
            worst <= 2e-3,
            f"worst componentwise gap {worst:.2e} (T=2,3 at grid step 1e-3)",
        )

    def test_convexity_sampling(self):
        rng = np.random.default_rng(404)
        stats = pair_instance(rng, 5, 8, 8)
        params = ObjectiveParams(stats, 0.6, 0.02)
        worst = -np.inf
        for _ in range(100):
            w1 = random_simplex(rng, 5)
            w2 = random_simplex(rng, 5)
            theta = float(rng.uniform())
            mid = theta * w1 + (1 - theta) * w2
            excess = objective(params, mid) - (
                theta * objective(params, w1) + (1 - theta) * objective(params, w2)
            )
            worst = max(worst, excess)
        check(
            "1d convexity sampling",
            worst <= 1e-9,
            f"worst convexity violation {worst:.2e} over 100 triples",
        )

    def test_simplex_preservation(self, monkeypatch):
        rng = np.random.default_rng(505)
        points = record_projections(monkeypatch)
        for _ in range(5):
            stats = pair_instance(rng, int(rng.integers(2, 9)), 6, 6)
            params = ObjectiveParams(stats, 0.5, 0.01)
            points.append(solve_weights(params, 2000).weights)
        worst_sum = max(abs(float(w.sum()) - 1.0) for w in points)
        worst_neg = min(float(w.min()) for w in points)
        check(
            "1e simplex preservation across all solver iterates",
            worst_sum <= 1e-12 and worst_neg >= 0.0,
            f"max |sum-1| {worst_sum:.1e}, min component {worst_neg:.1e} "
            f"over {len(points)} points",
        )

    def test_solver_vs_frank_wolfe_on_cascade_forests(self, monkeypatch):
        """A seeded sweep of 200 forests from small cascades: J at the solver's
        weights is at or below J after 2000 Frank-Wolfe steps, and every solve
        ends certified."""
        solves = []

        def recording(params, max_iterations):
            solves.append((params, solve(params, max_iterations)))
            return solves[-1][1]

        solve = cascade.solve_weights
        monkeypatch.setattr(cascade, "solve_weights", recording)
        for seed in range(25):
            ds = blobs(n=(40, 60)[seed % 2], m=5, gap=1.6, seed=seed, num_classes=2 + seed % 2)
            cfg = TrainConfig(
                trees_per_forest=(3, 5, 8)[seed % 3],
                max_levels=2,
                patience=2,
                lam=(0.01, 0.1)[seed % 2],
                tau=(0.5, 1.0)[seed % 4 // 2],
                pair_budget=300 if seed % 5 == 0 else None,
                seed=seed,
            )
            train_cascade(ds, cfg)
        worst_fw = worst_gap = -np.inf
        for params, (_, gap, value, _) in solves:
            w_fw, _ = plain_frank_wolfe(params, 2000)
            worst_fw = max(worst_fw, value / objective(params, w_fw) - 1)
            worst_gap = max(worst_gap, gap / value)
        check(
            "1f solver at or below Frank-Wolfe-2000 on cascade forests, certified",
            len(solves) == 200 and worst_fw <= 0.0 and worst_gap <= SOLVE_TOL,
            f"{len(solves)} forests; worst J relative to FW-2000 {worst_fw:+.2e}, "
            f"worst certified gap {worst_gap:.2e} of J",
        )


# --------------------------------------------------------------------------
# criterion 2: structural suite
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained():
    ds = blobs(n=60, m=6, num_classes=3, seed=7)
    cfg = TrainConfig(trees_per_forest=5, fw_iterations=150, max_levels=3, seed=7)
    return ds, train_cascade(ds, cfg)


class TestCriterion2Structure:
    def test_dimension_recurrence(self, trained):
        ds, model = trained
        ok = True
        expected = ds.feature_dim
        for level in model.levels:
            ok = ok and level.input_dim == expected
            ok = ok and level.output_dim == expected + 4 * ds.num_classes
            expected = level.output_dim
        check(
            "2a dimension recurrence at every level",
            ok,
            f"{model.n_levels} level(s), dims up to {expected}",
        )

    def test_uniform_mode_matches_tree_means(self, trained):
        ds, _ = trained
        cfg = TrainConfig(
            trees_per_forest=5, max_levels=1, mode="baseline", seed=3
        )
        model = train_cascade(ds, cfg)
        X = ds.features[:20]
        worst = 0.0
        for forest in model.levels[0].forests:
            dists = forest_tree_dists_batch(forest, X)
            means = dists.mean(axis=1)
            weighted = np.einsum("ntc,t->nc", dists, forest.weights)
            worst = max(worst, float(np.abs(weighted - means).max()))
        check(
            "2b uniform-weight mode reproduces tree-mean class vectors",
            worst <= 1e-12,
            f"max |weighted - mean| = {worst:.2e}",
        )

    def test_class_vectors_sum_to_one(self, trained):
        ds, model = trained
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, ds.feature_dim), scale=3.0)
        worst = 0.0
        feats = X
        for level in model.levels:
            for forest in level.forests:
                dists = forest_tree_dists_batch(forest, feats)
                vectors = np.einsum("ntc,t->nc", dists, forest.weights)
                worst = max(worst, float(np.abs(vectors.sum(axis=1) - 1.0).max()))
            from disdf.cascade import augment_batch

            feats = augment_batch(level, feats)
        check(
            "2c every class vector sums to 1",
            worst <= 1e-9,
            f"max |sum-1| = {worst:.2e} over all levels and forests",
        )

    def test_round_trip_bitwise_predictions(self, trained, tmp_path):
        ds, model = trained
        path = tmp_path / "acceptance.model"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(9)
        X = rng.normal(size=(200, ds.feature_dim), scale=4.0)
        same = bool(
            np.array_equal(predict_batch(model, X), predict_batch(loaded, X))
        )
        check("2d model round-trip gives identical predictions", same)


# --------------------------------------------------------------------------
# criterion 3: discriminative effect at desk scale
# --------------------------------------------------------------------------


def level_d1_ratio(records, trained):
    """Mean different-class over mean same-class out-of-fold Manhattan
    distance, per tree and weighted by the forest's (or uniform) weights,
    summed over a level's forests; forests share one pair set, so per-pair
    distances sum across forests and the means add."""
    diff = same = 0.0
    for forest, tree_dists, labels, stats in records:
        w = forest.weights if trained else uniform_weights(forest.n_trees)
        diff += float((stats.q_diff @ w).mean())
        ii, jj = np.triu_indices(labels.size, k=1)
        pair = labels[ii] == labels[jj]
        q_same = np.abs(tree_dists[ii[pair]] - tree_dists[jj[pair]]).sum(axis=2)
        same += float(q_same.mean(axis=0) @ w)
    return diff / same


class TestCriterion3Discriminative:
    def test_weight_training_effect(self, monkeypatch):
        start = time.perf_counter()
        cfg = TrainConfig(
            trees_per_forest=20,
            fw_iterations=600,
            max_levels=1,
            folds=3,
            tau=0.5,
            lam=0.01,
        )
        ratios_trained = []
        ratios_uniform = []
        solver_gains = []
        for seed in range(10):
            ds = blobs(n=200, m=5, gap=1.6, seed=seed)
            model, records = train_recording_pairs(
                monkeypatch, ds, cfg, rng=np.random.default_rng(seed)
            )
            uniform = uniform_weights(cfg.trees_per_forest)
            for solution, (_, _, _, stats) in zip(model.train_info[0], records, strict=True):
                at_uniform = objective(ObjectiveParams(stats, cfg.tau, cfg.lam), uniform)
                solver_gains.append(1 - solution.objective / at_uniform)
            ratios_trained.append(level_d1_ratio(records, trained=True))
            ratios_uniform.append(level_d1_ratio(records, trained=False))
        elapsed = time.perf_counter() - start
        # J at the solver's weights is never above J at uniform, on every forest
        check(
            "3 objective at or below uniform's (every forest, 10 seeds)",
            min(solver_gains) >= 0.0,
            f"least solver gain over uniform {min(solver_gains):.2%} "
            f"over {len(solver_gains)} forests",
        )
        mean_trained = float(np.mean(ratios_trained))
        mean_uniform = float(np.mean(ratios_uniform))
        check(
            "3 distance-ratio improvement",
            mean_trained >= mean_uniform - 1e-12,
            f"trained {mean_trained:.4f} vs uniform {mean_uniform:.4f} "
            f"({elapsed:.0f}s)",
        )
        assert elapsed < 300


# --------------------------------------------------------------------------
# criterion 4: benchmark reproduction on the public datasets
# --------------------------------------------------------------------------

DATA_DIR = Path(os.environ.get("DISDF_DATA_DIR", Path(__file__).parent.parent / "data"))

BENCH_CELLS = [
    # file, N, T, published baseline mean, published disdf mean, tolerance
    ("parkinsons.csv", 120, 400, 0.92, 0.95, 0.07),
    ("ecoli.csv", 100, 1000, 0.90, 0.93, 0.07),
    ("ionosphere.csv", 100, 100, 0.72, 0.80, 0.10),
]


class TestCriterion4Benchmarks:
    @pytest.mark.parametrize("filename,n_train,trees,ref_base,ref_disdf,tol", BENCH_CELLS)
    def test_reported_grid_cell(self, filename, n_train, trees, ref_base, ref_disdf, tol):
        path = DATA_DIR / filename
        if not path.exists():
            pytest.skip(
                f"{path} not found; fetch the UCI datasets with "
                "scripts/fetch_uci.py (needs network) and re-run"
            )
        ds = load_csv(path, -1)
        cfg = TrainConfig(trees_per_forest=trees, seed=11)
        workers = max(1, os.cpu_count() or 1)
        res = repeated_holdout(ds, n_train, reps=30, cfg=cfg, workers=workers)
        base = np.mean(res["baseline"])
        disdf = np.mean(res["disdf"])
        paired = float(
            np.mean(np.array(res["disdf"]) - np.array(res["baseline"]))
        )
        ok = (
            abs(base - ref_base) <= tol
            and abs(disdf - ref_disdf) <= tol
            and paired >= -0.01
        )
        check(
            f"4 {filename} N={n_train} T={trees}",
            ok,
            f"baseline {base:.3f} (ref {ref_base}), disdf {disdf:.3f} "
            f"(ref {ref_disdf}), paired diff {paired:+.3f}",
        )


# --------------------------------------------------------------------------
# criterion 5: degenerate inputs
# --------------------------------------------------------------------------


class TestCriterion5Degenerate:
    def test_single_class_training_raises_cleanly(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(15, 3)), np.zeros(15, dtype=int), 2)
        cfg = TrainConfig(trees_per_forest=3, max_levels=1)
        raised = False
        try:
            train_cascade(ds, cfg)
        except DegeneratePairsError as exc:
            raised = "degenerate pair set" in str(exc)
        check(
            "5 single-class disdf training raises the documented error",
            raised,
        )

    def test_single_tree_forests_train_and_predict(self):
        ds = blobs(n=30, m=3, gap=8.0, seed=1)
        cfg = TrainConfig(trees_per_forest=1, fw_iterations=50, max_levels=2)
        model = train_cascade(ds, cfg)
        preds = predict_batch(model, ds.features)
        single = predict(model, ds.features[0])
        check(
            "5 single-tree forests train and predict",
            preds.shape == (30,) and single == preds[0],
            f"train accuracy {float(np.mean(preds == ds.labels)):.2f}",
        )

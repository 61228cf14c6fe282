import csv

import numpy as np
import pytest

from disdf import evaluation
from disdf.cascade import predict, train_cascade
from disdf.config import TrainConfig
from disdf.data import Dataset
from disdf.errors import DataError, DimensionError
from disdf.evaluation import (
    ExperimentGrid,
    ModeSummary,
    accuracy,
    holdout_sizes,
    repeated_holdout,
    run_grid,
)
from tests.test_cascade import blobs, fast_cfg, manual_cascade
from tests.test_forest import TABLE


class TestAccuracy:
    def test_all_correct(self):
        model = manual_cascade([[0.2, 0.8]], n_features=1, num_classes=2)
        test = Dataset(np.zeros((5, 1)), np.ones(5, dtype=int), 2)
        assert accuracy(model, test) == 1.0

    def test_three_of_four(self):
        model = manual_cascade([[0.2, 0.8]], n_features=1, num_classes=2)
        test = Dataset(np.zeros((4, 1)), np.array([1, 1, 1, 0]), 2)
        assert accuracy(model, test) == 0.75

    def test_matches_hand_rolled_loop(self):
        from disdf.cascade import train_cascade

        ds = blobs(n=40, m=3, seed=1)
        model = train_cascade(ds, fast_cfg())
        test = blobs(n=20, m=3, seed=2)
        correct = sum(
            1 for row, label in zip(test.features, test.labels)
            if predict(model, row) == label
        )
        assert accuracy(model, test) == pytest.approx(correct / test.n)

    def test_empty_test_set_rejected(self):
        model = manual_cascade([[1.0, 0.0]], n_features=1, num_classes=2)
        empty = Dataset(np.empty((0, 1)), np.empty(0, dtype=int), 2)
        with pytest.raises(DataError, match="empty"):
            accuracy(model, empty)

    def test_dimension_mismatch(self):
        model = manual_cascade([[1.0, 0.0]], n_features=1, num_classes=2)
        test = Dataset(np.zeros((3, 4)), np.zeros(3, dtype=int), 2)
        with pytest.raises(DimensionError):
            accuracy(model, test)


class TestHoldoutSizes:
    def test_two_thirds_rule(self):
        assert holdout_sizes(336, 120) == (120, 80)
        assert holdout_sizes(351, 100) == (100, 67)

    def test_rounding_up(self):
        # 2N/3 rounds up when not divisible
        assert holdout_sizes(300, 100) == (100, 67)
        assert holdout_sizes(300, 50) == (50, 34)

    def test_capped_when_dataset_is_small(self):
        # a 195-row set cannot give 120 + 80 disjoint rows; test side is capped
        assert holdout_sizes(195, 120) == (120, 75)

    def test_invalid_sizes(self):
        with pytest.raises(DataError):
            holdout_sizes(50, 50)
        with pytest.raises(DataError):
            holdout_sizes(50, 0)


class TestRepeatedHoldout:
    def test_deterministic_across_runs(self):
        ds = blobs(n=60, m=3, seed=3)
        cfg = fast_cfg(trees_per_forest=3, fw_iterations=60)
        r1 = repeated_holdout(ds, 24, reps=2, cfg=cfg, seed=5)
        r2 = repeated_holdout(ds, 24, reps=2, cfg=cfg, seed=5)
        assert r1.baseline.accuracies == r2.baseline.accuracies
        assert r1.disdf.accuracies == r2.disdf.accuracies

    def test_summary_mean_is_arithmetic_mean(self):
        ds = blobs(n=60, m=3, seed=4)
        cfg = fast_cfg(trees_per_forest=3, fw_iterations=60)
        res = repeated_holdout(ds, 21, reps=3, cfg=cfg, seed=1)
        for summary in (res.baseline, res.disdf):
            assert summary.mean == pytest.approx(
                sum(summary.accuracies) / len(summary.accuracies), abs=1e-12
            )
            assert len(summary.accuracies) == 3

    def test_separable_toy_baseline_accuracy(self):
        ds = blobs(n=150, m=2, gap=10.0, seed=5)
        cfg = fast_cfg(trees_per_forest=5, fw_iterations=60)
        res = repeated_holdout(ds, 60, reps=10, cfg=cfg, seed=2)
        assert res.baseline.mean >= 0.95
        assert res.n_test == 40

    def test_reported_sizes(self):
        ds = blobs(n=60, m=2, seed=6)
        res = repeated_holdout(
            ds, 24, reps=1, cfg=fast_cfg(trees_per_forest=2, fw_iterations=40), seed=0
        )
        assert res.n_train == 24
        assert res.n_test == 16

    def test_bad_reps(self):
        ds = blobs(n=30, m=2, seed=7)
        with pytest.raises(DataError):
            repeated_holdout(ds, 10, reps=0, cfg=fast_cfg(), seed=0)

    def test_both_modes_grow_identical_first_level(self, monkeypatch):
        # only the weights may differ between the modes of one repetition
        models = {}

        def recording_train(train, cfg, rng=None, workers=1):
            models[cfg.mode] = train_cascade(train, cfg, rng=rng, workers=workers)
            return models[cfg.mode]

        monkeypatch.setattr(evaluation, "train_cascade", recording_train)
        ds = blobs(n=48, m=3, seed=9)
        repeated_holdout(ds, 24, reps=1, cfg=fast_cfg(fw_iterations=60), seed=3)
        pairs = zip(*(models[m].levels[0].forests for m in evaluation.MODES), strict=True)
        for f1, f2 in pairs:
            for name in TABLE[:-1]:
                np.testing.assert_array_equal(getattr(f1, name), getattr(f2, name))

    def test_parallel_workers_match_serial(self):
        ds = blobs(n=48, m=2, seed=8)
        cfg = fast_cfg(trees_per_forest=2, fw_iterations=40)
        serial = repeated_holdout(ds, 18, reps=2, cfg=cfg, seed=4, workers=1)
        parallel = repeated_holdout(ds, 18, reps=2, cfg=cfg, seed=4, workers=2)
        assert serial.baseline.accuracies == parallel.baseline.accuracies
        assert serial.disdf.accuracies == parallel.disdf.accuracies


class TestGrid:
    def make_grid(self, reps=1, **cfg_kw):
        cfg = fast_cfg(trees_per_forest=2, fw_iterations=40, **cfg_kw)
        return ExperimentGrid(
            train_sizes=(9, 12), tree_counts=(1, 3), reps=reps, base_config=cfg
        )

    def test_all_cells_in_range(self):
        ds = blobs(n=24, m=2, seed=8)
        result = run_grid(ds, self.make_grid(), dataset_name="toy")
        assert len(result.cells) == 4
        for res in result.cells.values():
            for acc in res.baseline.accuracies + res.disdf.accuracies:
                assert 0.0 <= acc <= 1.0

    def test_degenerate_single_tree_column(self):
        ds = blobs(n=24, m=2, seed=9)
        grid = ExperimentGrid((9,), (1,), 1, fast_cfg(fw_iterations=40))
        result = run_grid(ds, grid)
        res = result.cells[(9, 1)]
        assert res.baseline.accuracies and res.disdf.accuracies

    def test_tree_count_overrides_config(self):
        ds = blobs(n=24, m=2, seed=10)
        grid = ExperimentGrid((9,), (2,), 1, fast_cfg(trees_per_forest=50))
        result = run_grid(ds, grid)
        assert (9, 2) in result.cells

    def test_rows_and_csv_output(self, tmp_path):
        ds = blobs(n=24, m=2, seed=11)
        result = run_grid(ds, self.make_grid(reps=2), dataset_name="toy")
        rows = list(result.rows())
        assert len(rows) == 4 * 2 * 2  # cells x modes x reps
        per_rep = tmp_path / "acc.csv"
        summary = tmp_path / "summary.csv"
        result.write_csv(per_rep)
        result.write_summary_csv(summary)
        with open(per_rep) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        assert set(parsed[0]) == {"dataset", "N", "T", "mode", "rep", "accuracy"}
        with open(summary) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 4 * 2
        means = {
            (r["N"], r["T"], r["mode"]): float(r["mean"]) for r in parsed
        }
        assert all(0.0 <= m <= 1.0 for m in means.values())

    def test_format_table_layout(self):
        ds = blobs(n=24, m=2, seed=12)
        result = run_grid(ds, self.make_grid(), dataset_name="toy")
        table = result.format_table()
        lines = table.splitlines()
        assert len(lines) == 3  # header + one row per N
        assert "gcF" in lines[0] and "DisDF" in lines[0]

    def test_oversized_train_size_rejected(self):
        ds = blobs(n=24, m=2, seed=13)
        grid = ExperimentGrid((24,), (2,), 1, fast_cfg())
        with pytest.raises(DataError):
            run_grid(ds, grid)


class TestModeSummary:
    def test_std_of_constant_is_zero(self):
        s = ModeSummary("baseline", (0.5, 0.5, 0.5))
        assert s.std == 0.0
        assert s.mean == 0.5

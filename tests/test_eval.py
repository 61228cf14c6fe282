import csv
from dataclasses import replace

import numpy as np
import pytest

from disdf import evaluation
from disdf.cascade import predict, train_cascade
from disdf.config import TrainConfig
from disdf.data import Dataset
from disdf.errors import DataError, DimensionError
from disdf.evaluation import (
    GridResult,
    accuracy,
    holdout_sizes,
    repeated_holdout,
    run_grid,
)
from tests.test_cascade import blobs, fast_cfg, manual_cascade
from tests.test_forest import TABLE


class TestAccuracy:
    def test_all_correct(self):
        model = manual_cascade([[1, 4]], n_features=1)
        test = Dataset(np.zeros((5, 1)), np.ones(5, dtype=int), 2)
        assert accuracy(model, test) == 1.0

    def test_three_of_four(self):
        model = manual_cascade([[1, 4]], n_features=1)
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
        model = manual_cascade([[1, 0]], n_features=1)
        empty = Dataset(np.empty((0, 1)), np.empty(0, dtype=int), 2)
        with pytest.raises(DataError, match="empty"):
            accuracy(model, empty)

    def test_dimension_mismatch(self):
        model = manual_cascade([[1, 0]], n_features=1)
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
        r1 = repeated_holdout(ds, 24, reps=2, cfg=replace(cfg, seed=5))
        r2 = repeated_holdout(ds, 24, reps=2, cfg=replace(cfg, seed=5))
        assert r1["baseline"] == r2["baseline"]
        assert r1["disdf"] == r2["disdf"]

    def test_summary_mean_is_arithmetic_mean(self):
        ds = blobs(n=60, m=3, seed=4)
        cfg = fast_cfg(trees_per_forest=3, fw_iterations=60)
        res = repeated_holdout(ds, 21, reps=3, cfg=replace(cfg, seed=1))
        result = GridResult("toy", (21,), (3,), {(21, 3): res})
        for row in result.summary_rows():
            accs = res[row["mode"]]
            assert row["mean"] == pytest.approx(sum(accs) / len(accs), abs=1e-12)
            assert len(accs) == 3

    def test_separable_toy_baseline_accuracy(self):
        ds = blobs(n=150, m=2, gap=10.0, seed=5)
        cfg = fast_cfg(trees_per_forest=5, fw_iterations=60)
        res = repeated_holdout(ds, 60, reps=10, cfg=replace(cfg, seed=2))
        assert np.mean(res["baseline"]) >= 0.95

    def test_bad_reps(self):
        ds = blobs(n=30, m=2, seed=7)
        with pytest.raises(DataError):
            repeated_holdout(ds, 10, reps=0, cfg=fast_cfg())

    def test_both_modes_grow_identical_first_level(self, monkeypatch):
        # only the weights may differ between the modes of one repetition
        models = {}

        def recording_train(train, cfg, rng=None, workers=1):
            models[cfg.mode] = train_cascade(train, cfg, rng=rng, workers=workers)
            return models[cfg.mode]

        monkeypatch.setattr(evaluation, "train_cascade", recording_train)
        ds = blobs(n=48, m=3, seed=9)
        repeated_holdout(ds, 24, reps=1, cfg=replace(fast_cfg(fw_iterations=60), seed=3))
        pairs = zip(*(models[m].levels[0].forests for m in evaluation.MODES), strict=True)
        for f1, f2 in pairs:
            for name in TABLE[:-1]:
                np.testing.assert_array_equal(getattr(f1, name), getattr(f2, name))

    def test_parallel_workers_match_serial(self):
        ds = blobs(n=48, m=2, seed=8)
        cfg = fast_cfg(trees_per_forest=2, fw_iterations=40)
        serial = repeated_holdout(ds, 18, reps=2, cfg=replace(cfg, seed=4), workers=1)
        parallel = repeated_holdout(ds, 18, reps=2, cfg=replace(cfg, seed=4), workers=2)
        assert serial["baseline"] == parallel["baseline"]
        assert serial["disdf"] == parallel["disdf"]


class TestGrid:
    def run_toy_grid(self, ds, reps=1):
        cfg = fast_cfg(trees_per_forest=2, fw_iterations=40)
        return run_grid(ds, (9, 12), (1, 3), reps, cfg, dataset_name="toy")

    def test_all_cells_in_range(self):
        ds = blobs(n=24, m=2, seed=8)
        result = self.run_toy_grid(ds)
        assert len(result.cells) == 4
        for res in result.cells.values():
            for acc in res["baseline"] + res["disdf"]:
                assert 0.0 <= acc <= 1.0

    def test_degenerate_single_tree_column(self):
        ds = blobs(n=24, m=2, seed=9)
        result = run_grid(ds, (9,), (1,), 1, fast_cfg(fw_iterations=40))
        res = result.cells[(9, 1)]
        assert res["baseline"] and res["disdf"]

    def test_tree_count_overrides_config(self):
        ds = blobs(n=24, m=2, seed=10)
        result = run_grid(ds, (9,), (2,), 1, fast_cfg(trees_per_forest=50))
        assert (9, 2) in result.cells

    def test_rows_and_csv_output(self, tmp_path):
        ds = blobs(n=24, m=2, seed=11)
        result = self.run_toy_grid(ds, reps=2)
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

    def test_summary_of_constant_accuracies(self):
        result = GridResult(
            "toy", (9,), (1,), {(9, 1): {"baseline": (0.5, 0.5, 0.5), "disdf": (0.75,) * 3}}
        )
        rows = [(r["mode"], r["reps"], r["mean"], r["std"]) for r in result.summary_rows()]
        assert rows == [("baseline", 3, 0.5, 0.0), ("disdf", 3, 0.75, 0.0)]

    def test_format_table_layout(self):
        ds = blobs(n=24, m=2, seed=12)
        result = self.run_toy_grid(ds)
        table = result.format_table()
        lines = table.splitlines()
        assert len(lines) == 3  # header + one row per N
        assert "gcF" in lines[0] and "DisDF" in lines[0]

    def test_oversized_train_size_rejected(self):
        ds = blobs(n=24, m=2, seed=13)
        with pytest.raises(DataError):
            run_grid(ds, (24,), (2,), 1, fast_cfg())

    @pytest.mark.parametrize(
        "train_sizes, tree_counts, reps, message",
        [
            ((9,), (2,), 0, "reps"),
            ((), (2,), 1, "at least one N"),
            ((9,), (), 1, "at least one N"),
            ((9,), (0,), 1, "tree counts"),
            # N = 2 cannot be cut into 3 folds: not even N = 12's cell is trained
            ((12, 2), (2,), 1, "folds = 3"),
            # a repeated N or T would train its cells twice
            ((12, 9, 12), (2,), 1, "repeated N"),
            ((9,), (2, 1, 2), 1, "repeated T"),
        ],
    )
    def test_bad_grid_rejected_before_training(
        self, monkeypatch, train_sizes, tree_counts, reps, message
    ):
        calls = []
        monkeypatch.setattr(evaluation, "train_cascade", lambda *a, **k: calls.append(a))
        ds = blobs(n=24, m=2, seed=14)
        with pytest.raises(DataError, match=message):
            run_grid(ds, train_sizes, tree_counts, reps, fast_cfg())
        assert calls == []

"""Benchmark protocol: accuracy, repeated random holdout, and comparison grids.

Each repetition draws a fresh train/test split from a seed derived from
(seed, repetition) and trains the discriminative and baseline modes on
byte-identical splits with identical tree rng streams, so reported
differences isolate the effect of the trained weights.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .cascade import _map_tasks, predict_batch, train_cascade
from .config import MODE_BASELINE, MODE_DISDF, MODES, TrainConfig
from .data import Dataset, split
from .errors import DataError


def accuracy(model, test: Dataset) -> float:
    """Proportion of correctly classified test rows."""
    if test.n == 0:
        raise DataError("cannot score an empty test set")
    return float(np.mean(predict_batch(model, test.features) == test.labels))


def holdout_sizes(n: int, n_train: int) -> tuple[int, int]:
    """Test size is ceil(2N/3), capped so train and test stay disjoint."""
    if n_train < 1 or n_train >= n:
        raise DataError(f"need 1 <= N < n, got N = {n_train} with n = {n}")
    n_test = min(math.ceil(2 * n_train / 3), n - n_train)
    if n_test < 1:
        raise DataError(f"no rows left for testing with N = {n_train}, n = {n}")
    return n_train, n_test


@dataclass(frozen=True)
class ModeSummary:
    mode: str
    accuracies: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies))


@dataclass(frozen=True)
class HoldoutResult:
    n_train: int
    n_test: int
    reps: int
    baseline: ModeSummary
    disdf: ModeSummary

    def summary(self, mode: str) -> ModeSummary:
        return {MODE_BASELINE: self.baseline, MODE_DISDF: self.disdf}[mode]


def _run_repetition(ds, n_train, n_test, cfg, seed, rep):
    rep_seq = np.random.SeedSequence(entropy=(seed, rep))
    split_seq, train_seq = rep_seq.spawn(2)
    train_ds, test_ds = split(ds, n_train, n_test, split_seq, stratify=cfg.stratify)
    out = {}
    for mode in MODES:
        # Generator.spawn advances the SeedSequence it was built from, so each
        # mode gets a fresh copy of train_seq and both grow the same trees
        fresh_seq = np.random.SeedSequence(train_seq.entropy, spawn_key=train_seq.spawn_key)
        model = train_cascade(
            train_ds, replace(cfg, mode=mode), rng=np.random.default_rng(fresh_seq)
        )
        out[mode] = accuracy(model, test_ds)
    return out


def repeated_holdout(
    ds: Dataset,
    n_train: int,
    reps: int,
    cfg: TrainConfig,
    seed: int,
    workers: int = 1,
) -> HoldoutResult:
    """Paired repeated-random-subsampling comparison of both modes."""
    if reps < 1:
        raise DataError(f"reps must be >= 1, got {reps}")
    n_train, n_test = holdout_sizes(ds.n, n_train)
    run = partial(_run_repetition, ds, n_train, n_test, cfg, seed)
    results = _map_tasks(run, range(reps), workers=workers)
    per_mode = {mode: tuple(acc[mode] for acc in results) for mode in MODES}
    return HoldoutResult(
        n_train=n_train,
        n_test=n_test,
        reps=reps,
        baseline=ModeSummary(MODE_BASELINE, per_mode[MODE_BASELINE]),
        disdf=ModeSummary(MODE_DISDF, per_mode[MODE_DISDF]),
    )


@dataclass(frozen=True)
class ExperimentGrid:
    train_sizes: tuple[int, ...]
    tree_counts: tuple[int, ...]
    reps: int
    base_config: TrainConfig

    def validate(self, n_rows: int) -> "ExperimentGrid":
        if self.reps < 1:
            raise DataError("reps must be >= 1")
        if not self.train_sizes or not self.tree_counts:
            raise DataError("grid needs at least one N and one T")
        for n_train in self.train_sizes:
            holdout_sizes(n_rows, n_train)
        for t in self.tree_counts:
            if t < 1:
                raise DataError(f"tree counts must be >= 1, got {t}")
        return self


@dataclass(frozen=True)
class GridResult:
    dataset: str
    grid: ExperimentGrid
    cells: dict  # (N, T) -> HoldoutResult

    def rows(self):
        """Per-repetition records: dataset, N, T, mode, rep, accuracy."""
        for (n_train, t), res in sorted(self.cells.items()):
            for mode in MODES:
                for rep, acc in enumerate(res.summary(mode).accuracies):
                    yield {
                        "dataset": self.dataset,
                        "N": n_train,
                        "T": t,
                        "mode": mode,
                        "rep": rep,
                        "accuracy": acc,
                    }

    def summary_rows(self):
        for (n_train, t), res in sorted(self.cells.items()):
            for mode in MODES:
                s = res.summary(mode)
                yield {
                    "dataset": self.dataset,
                    "N": n_train,
                    "T": t,
                    "mode": mode,
                    "reps": res.reps,
                    "mean": s.mean,
                    "std": s.std,
                }

    def write_csv(self, path) -> None:
        _write_records(path, self.rows(), ["dataset", "N", "T", "mode", "rep", "accuracy"])

    def write_summary_csv(self, path) -> None:
        _write_records(
            path, self.summary_rows(), ["dataset", "N", "T", "mode", "reps", "mean", "std"]
        )

    def format_table(self) -> str:
        """Aligned text table: one row per N, a baseline/disdf pair per T."""
        ts = list(self.grid.tree_counts)
        header = ["N"] + [f"T={t} {m}" for t in ts for m in ("gcF", "DisDF")]
        lines = ["  ".join(f"{h:>12}" for h in header)]
        for n_train in self.grid.train_sizes:
            cells = [f"{n_train:>12}"]
            for t in ts:
                res = self.cells[(n_train, t)]
                cells.append(f"{res.baseline.mean:>12.3f}")
                cells.append(f"{res.disdf.mean:>12.3f}")
            lines.append("  ".join(cells))
        return "\n".join(lines)


def _write_records(path, records, fields) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for record in records:
            writer.writerow(record)


def run_grid(
    ds: Dataset,
    grid: ExperimentGrid,
    seed: int | None = None,
    workers: int = 1,
    dataset_name: str = "data",
) -> GridResult:
    """Run the full N-by-T comparison grid on one dataset."""
    grid.validate(ds.n)
    seed = grid.base_config.seed if seed is None else seed
    cells = {}
    for n_train in grid.train_sizes:
        for t in grid.tree_counts:
            cfg = replace(grid.base_config, trees_per_forest=t)
            cells[(n_train, t)] = repeated_holdout(
                ds, n_train, grid.reps, cfg, seed=seed, workers=workers
            )
    return GridResult(dataset=dataset_name, grid=grid, cells=cells)

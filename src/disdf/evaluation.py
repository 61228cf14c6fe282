"""Benchmark protocol: accuracy, repeated random holdout, and comparison grids.

Each repetition draws a fresh train/test split from a stream derived from
(``cfg.seed``, repetition) and trains the baseline and discriminative modes on
byte-identical splits, each from a training stream built afresh from the
same pair, so both grow the same trees and reported differences isolate
the effect of the trained weights.  Results are plain data:
``repeated_holdout`` returns ``{mode: per-repetition accuracies}``, and
``run_grid`` a :class:`GridResult` whose ``cells`` map ``(N, T)`` to such a
dict.
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


def _run_repetition(ds, n_train, n_test, cfg, rep):
    # the children SeedSequence((cfg.seed, rep)).spawn(2) would give, built afresh
    # for each use: a mode's training draws cannot advance the next mode's
    # stream, so both modes grow the same trees
    split_seq = np.random.SeedSequence((cfg.seed, rep), spawn_key=(0,))
    train_ds, test_ds = split(ds, n_train, n_test, split_seq, stratify=cfg.stratify)
    out = {}
    for mode in MODES:
        train_seq = np.random.SeedSequence((cfg.seed, rep), spawn_key=(1,))
        model = train_cascade(
            train_ds, replace(cfg, mode=mode), rng=np.random.default_rng(train_seq)
        )
        out[mode] = accuracy(model, test_ds)
    return out


def repeated_holdout(
    ds: Dataset,
    n_train: int,
    reps: int,
    cfg: TrainConfig,
    workers: int = 1,
) -> dict[str, tuple[float, ...]]:
    """Paired repeated-random-subsampling comparison of both modes.

    Returns each mode's test accuracies, one per repetition, by mode name.
    Repetition ``r`` draws its split and training streams from
    ``(cfg.seed, r)``, whatever the worker count.
    """
    if reps < 1:
        raise DataError(f"reps must be >= 1, got {reps}")
    n_train, n_test = holdout_sizes(ds.n, n_train)
    run = partial(_run_repetition, ds, n_train, n_test, cfg)
    results = _map_tasks(run, range(reps), workers=workers)
    return {mode: tuple(acc[mode] for acc in results) for mode in MODES}


@dataclass(frozen=True)
class GridResult:
    dataset: str
    train_sizes: tuple[int, ...]
    tree_counts: tuple[int, ...]
    cells: dict  # (N, T) -> {mode: per-repetition accuracies}

    def rows(self):
        """Per-repetition records: dataset, N, T, mode, rep, accuracy."""
        for (n_train, t), accs in sorted(self.cells.items()):
            for mode in MODES:
                for rep, acc in enumerate(accs[mode]):
                    yield {
                        "dataset": self.dataset,
                        "N": n_train,
                        "T": t,
                        "mode": mode,
                        "rep": rep,
                        "accuracy": acc,
                    }

    def summary_rows(self):
        for (n_train, t), accs in sorted(self.cells.items()):
            for mode in MODES:
                yield {
                    "dataset": self.dataset,
                    "N": n_train,
                    "T": t,
                    "mode": mode,
                    "reps": len(accs[mode]),
                    "mean": float(np.mean(accs[mode])),
                    "std": float(np.std(accs[mode])),
                }

    def write_csv(self, path) -> None:
        _write_records(path, self.rows(), ["dataset", "N", "T", "mode", "rep", "accuracy"])

    def write_summary_csv(self, path) -> None:
        _write_records(
            path, self.summary_rows(), ["dataset", "N", "T", "mode", "reps", "mean", "std"]
        )

    def format_table(self) -> str:
        """Aligned text table: one row per N, a baseline/disdf pair per T."""
        header = ["N"] + [f"T={t} {m}" for t in self.tree_counts for m in ("gcF", "DisDF")]
        lines = ["  ".join(f"{h:>12}" for h in header)]
        for n_train in self.train_sizes:
            cells = [f"{n_train:>12}"]
            for t in self.tree_counts:
                accs = self.cells[(n_train, t)]
                cells.append(f"{np.mean(accs[MODE_BASELINE]):>12.3f}")
                cells.append(f"{np.mean(accs[MODE_DISDF]):>12.3f}")
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
    train_sizes: tuple[int, ...],
    tree_counts: tuple[int, ...],
    reps: int,
    cfg: TrainConfig,
    workers: int = 1,
    dataset_name: str = "data",
) -> GridResult:
    """Run the full N-by-T comparison grid on one dataset.

    Every N, T and ``reps`` is checked before any cell is trained: each N
    leaves test rows and is at least ``cfg.folds``, and no N or T is
    repeated, which would train its cells twice.  ``cfg`` gives each cell's
    training settings, its seed included, but its tree count.
    """
    if reps < 1:
        raise DataError("reps must be >= 1")
    if not train_sizes or not tree_counts:
        raise DataError("grid needs at least one N and one T")
    for name, values in (("N", train_sizes), ("T", tree_counts)):
        if len(set(values)) < len(values):
            raise DataError(f"repeated {name} in the grid: {list(values)}")
    for n_train in train_sizes:
        holdout_sizes(ds.n, n_train)
        if n_train < cfg.folds:
            raise DataError(f"need N >= folds = {cfg.folds}, got N = {n_train}")
    for t in tree_counts:
        if t < 1:
            raise DataError(f"tree counts must be >= 1, got {t}")
    cells = {}
    for n_train in train_sizes:
        for t in tree_counts:
            cell_cfg = replace(cfg, trees_per_forest=t)
            cells[(n_train, t)] = repeated_holdout(ds, n_train, reps, cell_cfg, workers=workers)
    return GridResult(dataset_name, tuple(train_sizes), tuple(tree_counts), cells)

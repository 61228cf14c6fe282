"""Level-by-level cascade training, feature augmentation, and prediction.

Each level holds several forests.  Every training instance's class vector is
produced out-of-fold: trees fit on folds that exclude the instance.  Those
out-of-fold per-tree distributions feed both the pairwise statistics for
weight training and the augmented features handed to the next level, while a
refit-on-all-data forest (with the trained weights attached, trees matched by
position) is what the deployed model uses.  A slot's k fold forests and its
refit forest are grown in one call, in one frontier over rows of the level's
Dataset; each forest has its own generator, which draws the forest's
bootstraps first and then one block per depth for the forest's own open
nodes, so every forest is the one it would be grown alone.  The forests of a
level are fitted in groups, one process-pool task each, and the weights of a
group are trained in one lockstep Frank-Wolfe solve; no result depends on
the grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import pairstats
from .config import MODE_DISDF, TrainConfig
from .data import Dataset, kfold_indices
from .errors import BadCellError, DataError, DimensionError
from .forest import (
    ForestModel,
    class_vectors_batch,
    forest_tree_dists_batch,
    train_forests,
    uniform_weights,
)
from .pairstats import compute_pair_stats
from .weightopt import ObjectiveParams, frank_wolfe, objective

IMPROVEMENT_TOL = 1e-4


@dataclass
class LevelModel:
    forests: list[ForestModel]
    input_dim: int

    @property
    def num_classes(self) -> int:
        return self.forests[0].num_classes

    @property
    def output_dim(self) -> int:
        return self.input_dim + len(self.forests) * self.num_classes


@dataclass
class CascadeModel:
    levels: list[LevelModel]
    base_dim: int
    num_classes: int
    config: TrainConfig
    level_scores: tuple[float, ...] = ()
    class_labels: tuple[str, ...] | None = None
    # per-level, per-forest optimizer diagnostics; not persisted
    train_info: tuple = ()

    @property
    def n_levels(self) -> int:
        return len(self.levels)


def should_stop(level_scores, patience: int) -> bool:
    """True when the best score has not improved for ``patience`` levels."""
    if len(level_scores) == 0:
        raise ValueError("need at least one recorded level score")
    if patience < 1:
        raise ValueError("patience must be >= 1")
    return len(level_scores) - 1 - _best_level(level_scores) >= patience


def _best_level(scores) -> int:
    best = -np.inf
    best_idx = 0
    for i, s in enumerate(scores):
        if s > best + IMPROVEMENT_TOL:
            best, best_idx = s, i
    return best_idx


def _fit_slots(ds: Dataset, cfg: TrainConfig, folds, kinds, seeds):
    """Fit a group of a level's forest slots: fold forests, refit, weight training.

    Each slot's ``SeedSequence`` spawns ``cfg.folds + 2`` streams: the k fold
    forests' in fold order, then the refit forest's, then the pair
    sampler's.  It is a ``SeedSequence`` rather than a Generator because
    numpy before 2.0 drops a Generator's ``SeedSequence`` when pickling it to
    a pool worker, and spawning there would not be reproducible.  So a
    slot's forests and pairs do not depend on the group it is fitted in.
    The k + 1 forests are grown by one ``train_forests`` call, on the folds'
    training rows of ``ds`` and then on all its rows.

    In disdf mode the group's weights are trained by one lockstep
    Frank-Wolfe solve, which gives each slot the weights it would get alone;
    a slot keeps them unless uniform weights score lower on the objective.
    Returns, per slot, the deployable forest, the out-of-fold class vectors
    used for augmentation and level scoring, and the training facts
    ``duality_gap``, ``objective_solver`` and ``objective_uniform`` (J at the
    solver's and at uniform weights) and ``fallback`` (none in baseline).
    """
    n_trees, params = cfg.trees_per_forest, cfg.tree_params()
    slots = []
    for kind, seed in zip(kinds, seeds):
        streams = [np.random.default_rng(s) for s in seed.spawn(cfg.folds + 2)]
        *forest_rngs, pair_rng = streams
        row_sets = [train_idx for train_idx, _ in folds] + [np.arange(ds.n)]
        *fold_forests, deploy = train_forests(ds, kind, n_trees, params, row_sets, forest_rngs)
        oof = np.empty((ds.n, n_trees, ds.num_classes))
        for (_, hold_idx), fold_forest in zip(folds, fold_forests):
            oof[hold_idx] = forest_tree_dists_batch(fold_forest, ds.features[hold_idx])
        slots.append((deploy, oof, pair_rng))

    uniform = uniform_weights(n_trees)
    trained = [(uniform, {}) for _ in slots]
    if cfg.mode == MODE_DISDF:
        objs = [
            ObjectiveParams(
                compute_pair_stats(oof, ds.labels, cfg.pair_budget, pair_rng),
                cfg.tau,
                cfg.lam,
            )
            for _, oof, pair_rng in slots
        ]
        trained = []
        for obj, (w_fw, gap, j_fw) in zip(objs, frank_wolfe(objs, cfg.fw_iterations)):
            j_uniform = objective(obj, uniform)
            # never deploy weights worse than the uniform baseline point
            fallback = j_fw > j_uniform
            info = {
                "duality_gap": gap,
                "objective_solver": j_fw,
                "objective_uniform": j_uniform,
                "fallback": fallback,
            }
            trained.append((uniform if fallback else w_fw, info))

    return [
        (deploy.with_weights(w), np.einsum("ntc,t->nc", oof, w), info)
        for (deploy, oof, _), (w, info) in zip(slots, trained)
    ]


def _map_tasks(fn, *arg_lists, workers: int) -> list:
    """``list(map(fn, *arg_lists))``, in a pool when workers and calls are > 1."""
    calls = len(arg_lists[0])
    if workers > 1 and calls > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, calls)) as pool:
            return list(pool.map(fn, *arg_lists))
    return list(map(fn, *arg_lists))


def _train_level(ds: Dataset, cfg: TrainConfig, rng, workers):
    """One level's forests, the next level's Dataset, the level score and diagnostics.

    The forest slots are cut into contiguous groups, one pool task each,
    whose weights are trained in lockstep: as many groups as workers (at
    most one per slot), or more when a group's pair statistics, charged at
    ``pairstats.pair_bytes`` per slot, would exceed ``MAX_PAIR_BYTES``.  A
    slot's results do not depend on its group.  The next level's features
    are ``ds.features`` followed by each forest's out-of-fold class vectors,
    in forest order.
    """
    folds = kfold_indices(ds.n, cfg.folds, rng.spawn(1)[0])
    kinds = cfg.forest_kinds()
    slot_seeds = rng.bit_generator.seed_seq.spawn(len(kinds))
    charge = pairstats.pair_bytes(ds.n, cfg.trees_per_forest, cfg.pair_budget)
    fit_in_memory = max(1, pairstats.MAX_PAIR_BYTES // charge)
    n_groups = max(min(workers, len(kinds)), -(-len(kinds) // fit_in_memory))
    groups = [slice(g[0], g[-1] + 1) for g in np.array_split(range(len(kinds)), n_groups)]
    fitted = _map_tasks(
        partial(_fit_slots, ds, cfg, folds),
        [kinds[g] for g in groups],
        [slot_seeds[g] for g in groups],
        workers=workers,
    )
    forests, oof_class_vectors, infos = zip(*(slot for group in fitted for slot in group))
    summed = np.sum(oof_class_vectors, axis=0)
    score = float(np.mean(np.argmax(summed, axis=1) == ds.labels))
    features = np.hstack([ds.features, *oof_class_vectors])
    augmented = Dataset(features, ds.labels, ds.num_classes, ds.label_names)
    level = LevelModel(list(forests), input_dim=ds.feature_dim)
    return level, augmented, score, infos


def train_cascade(
    train: Dataset,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
    workers: int = 1,
) -> CascadeModel:
    """Greedily train cascade levels until the level score stops improving.

    Level score is the training-set accuracy of the level's summed
    out-of-fold class vectors.  The returned model is truncated at the
    best-scoring level.
    """
    cfg.validate()
    if train.n < cfg.folds:
        raise DataError(
            f"need at least folds = {cfg.folds} training rows, got {train.n}"
        )
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    levels: list[LevelModel] = []
    scores: list[float] = []
    infos: list[tuple[dict, ...]] = []
    ds = train
    for q in range(cfg.max_levels):
        level, ds, score, info = _train_level(ds, cfg, rng.spawn(1)[0], workers)
        levels.append(level)
        scores.append(score)
        infos.append(info)
        if q + 1 == cfg.max_levels or should_stop(scores, cfg.patience):
            break

    keep = _best_level(scores) + 1
    return CascadeModel(
        levels=levels[:keep],
        base_dim=train.feature_dim,
        num_classes=train.num_classes,
        config=cfg,
        level_scores=tuple(scores),
        class_labels=train.label_names,
        train_info=tuple(infos[:keep]),
    )


def augment_batch(level: LevelModel, X: np.ndarray) -> np.ndarray:
    """Concatenate X with each forest's class vectors, in forest order."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != level.input_dim:
        raise DimensionError(
            f"expected (n, {level.input_dim}) inputs, got {X.shape}"
        )
    return np.hstack([X] + [class_vectors_batch(f, X) for f in level.forests])


def predict(model: CascadeModel, x: np.ndarray) -> int:
    """Class of x: argmax of the final level's summed class vectors."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.base_dim,):
        raise DimensionError(
            f"expected a length-{model.base_dim} vector, got shape {x.shape}"
        )
    return int(predict_batch(model, x[None, :])[0])


def predict_batch(model: CascadeModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.base_dim:
        raise DimensionError(
            f"expected (n, {model.base_dim}) inputs, got {X.shape}"
        )
    # a NaN would silently go right at every split
    if not np.isfinite(X).all():
        raise BadCellError("features contain NaN or infinite values")
    for level in model.levels[:-1]:
        X = augment_batch(level, X)
    class_vectors = [class_vectors_batch(f, X) for f in model.levels[-1].forests]
    return np.argmax(np.sum(class_vectors, axis=0), axis=1)

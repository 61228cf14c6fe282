"""Level-by-level cascade training, feature augmentation, and prediction.

Each level holds several forests.  Every training instance's class vector is
produced out-of-fold: trees fit on folds that exclude the instance, by one
array of fold ids per level shared by all its forests.  Those
out-of-fold per-tree distributions feed both the pairwise statistics for
weight training and the augmented features handed to the next level, while a
refit-on-all-data forest (with the trained weights attached, trees matched by
position) is what the deployed model uses.  Each level reads the base
features plus the class vectors of every earlier level
(:attr:`LevelModel.output_dim`, :func:`augment_batch`); gcForest (Zhou & Feng
2017) appends only the previous level's, which differs from three levels
on.  The forests of a level are fitted in groups of slots, one task each;
with several workers, :func:`_map_tasks` runs each worker process's
contiguous share of the tasks and takes the results back through a pipe.  A
group's forests, each slot's k fold forests and refit forest, of both kinds,
are grown in one call, in one frontier over rows of the level's Dataset;
each forest has its own generator, which draws the forest's bootstraps first
and then one block per depth for the forest's own open nodes, so every
forest is the one it would be grown alone.  The group's out-of-fold rows
are routed in one pass.  In disdf mode :func:`_fit_slots` then calls
:func:`compute_pair_stats` and :func:`solve_weights` for one forest at a
time, and the model keeps each forest's :class:`Solution` in
:attr:`CascadeModel.train_info`.  No result depends on the grouping.
Levels are added until the level score stops improving, by the stop rule
:func:`train_cascade` states.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import config, pairstats, tree
from .config import MODE_DISDF, TrainConfig
from .data import Dataset, fold_ids
from .errors import BadCellError, ConfigError, DimensionError, DisdfError
from .forest import ForestModel, class_vectors_batch, routed_tree_dists, train_forests
from .pairstats import compute_pair_stats
from .weightopt import ObjectiveParams, Solution, solve_weights

IMPROVEMENT_TOL = 1e-4


@dataclass
class LevelModel:
    forests: list[ForestModel]

    @property
    def input_dim(self) -> int:
        return self.forests[0].n_features

    @property
    def num_classes(self) -> int:
        return self.forests[0].num_classes

    @property
    def output_dim(self) -> int:
        return self.input_dim + len(self.forests) * self.num_classes


@dataclass
class CascadeModel:
    levels: list[LevelModel]
    config: TrainConfig
    level_scores: tuple[float, ...] = ()
    class_labels: tuple[str, ...] | None = None
    # per kept level, each forest's weight-solve Solution (None in baseline mode); not saved
    train_info: tuple[tuple[Solution | None, ...], ...] = ()

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def base_dim(self) -> int:
        return self.levels[0].input_dim

    @property
    def num_classes(self) -> int:
        return self.levels[0].num_classes


def _fit_slots(ds: Dataset, cfg: TrainConfig, fold_of, kinds, seeds):
    """Fit a group of a level's forest slots: fold forests, refit, weight training.

    Each slot's ``SeedSequence`` spawns ``cfg.folds + 2`` streams: the k fold
    forests' in fold order, then the refit forest's, then the pair
    sampler's.  It is a ``SeedSequence`` rather than a Generator because
    numpy before 2.0 drops a Generator's ``SeedSequence`` when pickling it to
    a spawned worker process, and spawning there would not be reproducible.
    So a slot's forests and pairs do not depend on the group it is fitted in.
    ``fold_of`` gives the fold that holds out each row of ``ds``.  The
    group's forests, k + 1 per slot on the folds' training rows and then on
    all rows, are grown by one ``train_forests`` call, kind-major inside the
    grower, with split scoring in chunks of at most ``tree.SCORE_POSITIONS``
    positions, so the group's size bounds only its frontier and node tables.
    Every row of every slot is then routed through the slot's fold forest
    that held it out, all in one pass.

    In disdf mode each slot's weights are then trained here, one forest at
    a time: :func:`compute_pair_stats` forms the forest's pair statistics
    from its out-of-fold tensor and :func:`solve_weights` solves them, and
    the statistics are dropped before the next forest's are formed.  A
    baseline slot keeps the uniform weights it was grown with.  Returns,
    per slot, the deployable forest, the out-of-fold class vectors used for
    augmentation and level scoring, and the solve's :class:`Solution`
    (None in baseline mode).
    """
    n_trees, k, n = cfg.trees_per_forest, cfg.folds, ds.n
    forest_rngs, pair_rngs = [], []
    for seed in seeds:
        *rngs, pair_rng = (np.random.default_rng(s) for s in seed.spawn(k + 2))
        forest_rngs += rngs
        pair_rngs.append(pair_rng)
    row_sets = [np.flatnonzero(fold_of != j) for j in range(k)] + [np.arange(n)]
    forests = train_forests(
        ds,
        [kind for kind in kinds for _ in row_sets],
        n_trees,
        cfg.tree_params(),
        row_sets * len(kinds),
        forest_rngs,
    )
    # every row of every slot through the slot's fold forest that held it out
    fold_forests = [f for i, f in enumerate(forests) if i % (k + 1) < k]
    which = (np.arange(len(kinds))[:, None] * k + fold_of).ravel()
    oofs = routed_tree_dists(fold_forests, ds.features, np.tile(np.arange(n), len(kinds)), which)
    oofs = oofs.reshape(len(kinds), n, n_trees, ds.num_classes)
    fitted = []
    for deploy, oof, pair_rng in zip(forests[k::k + 1], oofs, pair_rngs):
        solution = None
        if cfg.mode == MODE_DISDF:
            stats = compute_pair_stats(oof, ds.labels, cfg.pair_budget, pair_rng)
            solution = solve_weights(ObjectiveParams(stats, cfg.tau, cfg.lam), cfg.fw_iterations)
            del stats  # dropped before the next forest's pairs are formed
            deploy = deploy.with_weights(solution.weights)
        fitted.append((deploy, np.einsum("ntc,t->nc", oof, deploy.weights), solution))
    return fitted


class _WorkerTraceback(Exception):
    """A worker's formatted traceback, the cause of the exception it raised."""


def _run_share(fn, arg_lists, share, conn):
    """A worker's body: ``fn`` over its share of the calls, sent once through ``conn``.

    Sends ``(True, results)``, or ``(False, (exception, traceback text))``
    for the first call that raises.
    """
    try:
        message = (True, [fn(*args) for args in zip(*(a[share] for a in arg_lists))])
    except Exception as exc:
        message = (False, (exc, traceback.format_exc()))
    with conn:
        conn.send(message)


def _map_tasks(fn, *arg_lists, workers: int) -> list:
    """``list(map(fn, *arg_lists))``, in worker processes when workers and calls are > 1.

    The calls are cut into ``min(workers, calls)`` contiguous shares, one
    worker process each, which runs its share's calls one at a time and
    sends their results back once through a one-way pipe.  The shares are
    received in order, so the results are in map order.  A worker's
    exception is raised here with its own type, caused by a
    ``_WorkerTraceback`` that shows where it was raised; a worker that ends
    without sending is a :class:`DisdfError` naming its exit code.  Every
    worker has ended and been joined before this returns or raises.
    """
    calls = len(arg_lists[0])
    if workers <= 1 or calls <= 1:
        return list(map(fn, *arg_lists))
    import multiprocessing

    shares = [slice(s[0], s[-1] + 1) for s in np.array_split(range(calls), min(workers, calls))]
    procs, conns, results = [], [], []
    try:
        for share in shares:
            recv, send = multiprocessing.Pipe(duplex=False)
            conns.append(recv)
            # the parent's copy of the send end is closed, so a worker's exit is an EOF
            with send:
                proc = multiprocessing.Process(
                    target=_run_share, args=(fn, arg_lists, share, send)
                )
                proc.start()
            procs.append(proc)
        for proc, conn in zip(procs, conns):
            try:
                ok, value = conn.recv()
            except EOFError:
                proc.join()
                raise DisdfError(
                    f"a worker process ended with exit code {proc.exitcode} "
                    "before sending its results"
                ) from None
            if not ok:
                exc, text = value
                raise exc from _WorkerTraceback(text)
            results += value
    finally:
        # after an error a worker may still be computing; after its results it is only exiting
        for proc in procs:
            if proc.is_alive():
                proc.kill()
            proc.join()
        for conn in conns:
            conn.close()
    return results


def _train_level(ds: Dataset, cfg: TrainConfig, seq, workers):
    """One level's forests, the next level's Dataset, the level score and its forests' solves.

    ``seq`` spawns the level's streams in one call: the fold partition's,
    drawn first by ``data.fold_ids``, which refuses more folds than rows,
    and then one ``SeedSequence`` per slot.  A slot's k fold forests train
    on (k - 1) n rows, as the held-out sets partition the rows, and its
    refit forest on n, so a slot grows ``T k n`` (tree, row) positions.

    The level is charged once against ``config.MEMORY_LIMIT``, before any
    per-slot state is made.  Its kept state is each forest's trees, at most
    T (n - 1) internal nodes of 20 bytes and T n leaves of C uint32 counts,
    its T weights, and its class vectors, held twice (as its output and in
    the next level's features).  One worker needs the larger of two peaks:
    growing one slot, ``tree.grow_bytes`` per slot plus a fixed part, and
    one forest's pair statistics, ``pairstats.pair_bytes``, as a group
    forms and solves one forest's pairs at a time (a baseline level forms
    none).  A level whose kept state or need exceeds the limit is refused.
    Otherwise ``at_once``, the workers that run at once, is the least of
    ``workers``, the slots and the needs that fit the limit.  The slots are
    cut into contiguous groups, one task of :func:`_map_tasks` each, whose
    forests are grown in one call: ``at_once`` groups, or more when a
    group's growth would exceed a worker's share of the limit.  Each of the
    ``at_once`` worker processes fits a contiguous share of the groups.  A
    slot's results depend neither on its group nor on the workers.  The
    next level's features are ``ds.features`` followed by each forest's
    out-of-fold class vectors, in forest order.
    """
    n, n_classes = ds.n, ds.num_classes
    n_slots, n_trees = cfg.forests_per_level, cfg.trees_per_forest
    kept = n_slots * (n_trees * (20 * (n - 1) + 4 * n_classes * n + 8) + 16 * n * n_classes)
    # the kinds that occur: forest_kinds alternates them, random-split-search first
    per_slot, fixed = tree.grow_bytes(ds, tree.TREE_KINDS[:n_slots], n_trees * cfg.folds * n)
    pairs = pairstats.pair_bytes(n, n_trees, cfg.pair_budget) if cfg.mode == MODE_DISDF else 0
    need, limit = max(per_slot + fixed, pairs), config.MEMORY_LIMIT
    if max(kept, need) > limit:
        raise ConfigError(
            f"a level of {n_slots} forests of {n_trees} trees on {n} rows x "
            f"{ds.feature_dim} features keeps about {kept / 2**20:.0f} MiB of trees and "
            f"class vectors; a worker needs about {(per_slot + fixed) / 2**20:.0f} MiB to grow "
            f"a slot's {cfg.folds + 1} forests and {pairs / 2**20:.0f} MiB for a forest's "
            f"pair statistics; the limit is {limit / 2**20:.0f} MiB.  --forests and --trees "
            "keep fewer trees, --trees grows fewer and --pair-budget samples fewer pairs"
        )
    kinds = cfg.forest_kinds()
    at_once = min(max(workers, 1), n_slots, limit // need)
    n_groups = max(at_once, -(-n_slots // ((limit // at_once - fixed) // per_slot)))
    fold_seq, *slot_seeds = seq.spawn(1 + len(kinds))
    fold_of = fold_ids(n, cfg.folds, fold_seq)
    groups = [slice(g[0], g[-1] + 1) for g in np.array_split(range(len(kinds)), n_groups)]
    fitted = _map_tasks(
        partial(_fit_slots, ds, cfg, fold_of),
        [kinds[g] for g in groups],
        [slot_seeds[g] for g in groups],
        workers=at_once,
    )
    forests, oof_class_vectors, infos = zip(*(slot for group in fitted for slot in group))
    summed = np.sum(oof_class_vectors, axis=0)
    score = float(np.mean(np.argmax(summed, axis=1) == ds.labels))
    features = np.hstack([ds.features, *oof_class_vectors])
    augmented = Dataset(features, ds.labels, ds.num_classes, ds.label_names)
    level = LevelModel(list(forests))
    return level, augmented, score, infos


def train_cascade(
    train: Dataset,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
    workers: int = 1,
) -> CascadeModel:
    """Greedily train cascade levels until the level score stops improving.

    A level's score is the training-set accuracy of its summed out-of-fold
    class vectors.  Level i becomes the best when its score beats the best
    so far by more than ``IMPROVEMENT_TOL``, so the first of tied levels
    stays best.  Training stops once ``patience`` levels have followed the
    best, or after ``max_levels``; the model keeps the levels up to the
    best and the scores of all levels trained.  Each level's
    ``SeedSequence`` is spawned in turn from ``rng``'s, or from
    ``SeedSequence(cfg.seed)`` when ``rng`` is None.
    """
    cfg.validate()
    seq = np.random.SeedSequence(cfg.seed) if rng is None else rng.bit_generator.seed_seq

    levels: list[LevelModel] = []
    scores: list[float] = []
    infos: list[tuple[Solution | None, ...]] = []
    best = 0
    ds = train
    for i in range(cfg.max_levels):
        level, ds, score, info = _train_level(ds, cfg, seq.spawn(1)[0], workers)
        levels.append(level)
        scores.append(score)
        infos.append(info)
        if score > scores[best] + IMPROVEMENT_TOL:
            best = i
        elif i - best >= cfg.patience:
            break

    return CascadeModel(
        levels=levels[:best + 1],
        config=cfg,
        level_scores=tuple(scores),
        class_labels=train.label_names,
        train_info=tuple(infos[:best + 1]),
    )


def augment_batch(level: LevelModel, X: np.ndarray) -> np.ndarray:
    """Concatenate X with each forest's class vectors, in forest order."""
    X = np.asarray(X, dtype=np.float64)
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

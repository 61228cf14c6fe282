"""The benchmark's workloads: seeded synthetic data, set-up, timed units, checks.

The paper (arXiv 1705.09620) evaluates disdf on the UCI parkinsons, ecoli and
ionosphere CSVs.  Those files are not in the repository, so each workload
generates data of the same shape from its seed: Gaussian class clusters on
some features plus pure-noise features.  The cluster centres are fixed per
shape, so every seed poses a problem of the same difficulty and only the
sampled rows change.  Once the real CSVs are in the repository they replace
the synthetic data here.

Every workload pins the number of cascade levels (``max_levels`` equal to
``patience``).  With the default stopping rule the number of levels trained
varied from 2 to 5 between seeds of the same shape, which moved the training
time by more than any bound the benchmark could hold.  Trees per forest are
fewer than in the paper's grid (10 instead of 100 and more), so that one unit
of work takes seconds and a run can repeat it; see ``run.py`` on why.

Every unit of work in a run repeats the same work on the same inputs (or, on
``holdout-paired``, one of a fixed cycle of inputs), and its outputs are
checked each time.  Each workload stands for one kind of traffic:

* ``holdout-paired`` - one repetition of ``disdf bench``: split, train both
  modes with the same tree rng, score both.  The seed picks 8 data sets and
  a split of each; the units of a run cycle through them, as a bench grid
  cycles through repetitions.  The trees a repetition grows, and so its
  time, depend on the rows drawn (nodes grown varied by 7% between seeds,
  quartile distance over median); cycling averages that out of a run's
  median instead of fixing it per seed.
  Shape: parkinsons, 195 rows x 22 features, 2 classes (147/48); N=120
  training rows, 75 test rows; 2 levels of 4 forests x 10 trees.  Why: this
  is the paper's unit of work.  Tree growth dominates it and the level-1
  trees are grown twice, once per mode.  The two modes isolate
  ``weightopt``: a Frank-Wolfe change moves ``train_disdf_s`` and leaves
  ``train_baseline_s`` alone.
* ``train-pairs-2w`` - ``disdf train --threads 2`` on a whole file.  Shape:
  ionosphere, 351 rows x 34 features, 2 classes (225/126), all rows train;
  1 level of 4 forests x 10 trees, disdf mode.  Why: about 61k pairs put the
  weight on ``pairstats`` and ``weightopt`` and make memory matter; it is the
  only workload that runs the process pool.
* ``predict-multiclass`` - ``disdf predict`` and library ``predict()`` calls.
  Shape: ecoli, 336 rows x 7 features, 8 classes (143/77/52/35/20/5/2/2),
  plus a 4096-row query CSV; 1 level of 4 forests x 50 trees, trained in
  set-up with 2 workers.  Why: the read side of ``forest``.  It grows no
  trees in its timed part, so a growth speedup must leave it flat while a
  routing, load or parse speedup must move it.  The predict path is the same
  in both modes, so the model is trained in ``baseline`` mode to keep set-up
  short.  One level, because the number of levels a model keeps varies with
  the seed and the predict time with it.  C=8 and m=7 vary the shape away
  from the other two.

The library is driven only through its public functions, looked up on the
``disdf`` package at call time so that the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import os
import time
import zlib
from dataclasses import dataclass, replace

import numpy as np

import disdf

SINGLE_ROW_CALLS = 200  # the 95th percentile then has 10 samples beyond it
SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class Shape:
    """Size of a synthetic data set and the UCI file whose shape it mimics."""

    mimics: str
    class_counts: tuple[int, ...]
    n_features: int
    informative: int
    separation: float

    @property
    def n_rows(self) -> int:
        return sum(self.class_counts)

    def centres(self) -> np.ndarray:
        # fixed per shape, so a seed changes the rows but not the difficulty
        rng = np.random.default_rng(zlib.crc32(self.mimics.encode()))
        return rng.normal(0.0, self.separation, (len(self.class_counts), self.informative))

    def sample(self, rng: np.random.Generator, counts=None):
        """Rows drawn around the class centres, shuffled: (features, class ids)."""
        counts = self.class_counts if counts is None else counts
        centres = self.centres()
        blocks, labels = [], []
        for c, k in enumerate(counts):
            signal = centres[c] + rng.normal(size=(k, self.informative))
            noise = rng.normal(size=(k, self.n_features - self.informative))
            blocks.append(np.hstack([signal, noise]))
            labels.append(np.full(k, c))
        order = rng.permutation(sum(counts))
        return np.vstack(blocks)[order], np.concatenate(labels)[order]


PARKINSONS = Shape("parkinsons", (147, 48), 22, 11, 0.6)
IONOSPHERE = Shape("ionosphere", (225, 126), 34, 12, 0.5)
ECOLI = Shape("ecoli", (143, 77, 52, 35, 20, 5, 2, 2), 7, 5, 1.6)


def write_csv(path, features, class_ids=None) -> None:
    """Write rows as the CLI reads them; labels go last as ``c<k>``."""
    with open(path, "w") as fh:
        if class_ids is not None:
            names = [f"f{j}" for j in range(features.shape[1])] + ["label"]
            fh.write(",".join(names) + "\n")
        for r, row in enumerate(features):
            cells = [repr(float(v)) for v in row]
            if class_ids is not None:
                cells.append(f"c{class_ids[r]}")
            fh.write(",".join(cells) + "\n")


def encode(ds, class_ids) -> np.ndarray:
    """Map generator class ids to the label indices ``load_csv`` assigned."""
    index = {name: i for i, name in enumerate(ds.label_names)}
    return np.array([index[f"c{c}"] for c in class_ids])


def training_csv(shape: Shape, rng, work):
    """Sample the training rows, write them as CSV and load them as the CLI does."""
    features, class_ids = shape.sample(rng)
    path = os.path.join(work, "train.csv")
    write_csv(path, features, class_ids)
    return disdf.load_csv(path, "label")


class Checks:
    """Output checks; each failure counts toward ``failed_ops``."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def simplex(self, model, what: str) -> None:
        """Every deployed weight vector lies on the unit simplex."""
        for w in weight_vectors(model):
            if not (w.min() >= 0.0 and abs(w.sum() - 1.0) <= SIMPLEX_TOL):
                self.expect(False, f"{what}: weight vector off the simplex")
                return
        self.expect(True, what)

    def accuracy(self, model, features, labels, what: str) -> float:
        """Held-out accuracy beats the held-out majority-class rate."""
        acc = float(np.mean(disdf.predict_batch(model, features) == labels))
        majority = np.bincount(labels).max() / labels.size
        self.expect(acc > majority, f"{what}: accuracy {acc:.3f} <= majority {majority:.3f}")
        return acc

    def round_trip(self, model, path, features, what: str) -> None:
        """The saved-and-loaded model predicts bit for bit like the in-memory one."""
        disdf.save_model(model, path)
        loaded = disdf.load_model(path)
        same = np.array_equal(
            disdf.predict_batch(model, features), disdf.predict_batch(loaded, features)
        ) and all(
            np.array_equal(a, b)
            for a, b in zip(weight_vectors(model), weight_vectors(loaded), strict=True)
        )
        self.expect(same, f"{what}: loaded model differs from the in-memory model")


def weight_vectors(model) -> list[np.ndarray]:
    return [forest.weights for level in model.levels for forest in level.forests]


def fingerprint(model, predictions) -> str:
    """Hash of the deployed weights and of predictions, to show changed results."""
    h = hashlib.sha256()
    for w in weight_vectors(model):
        h.update(np.ascontiguousarray(w, dtype=np.float64).tobytes())
    h.update(np.asarray(predictions, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def single_row_latencies(model, features, predictions, checks: Checks) -> list[float]:
    """Time ``predict()`` on single rows; each must agree with ``predict_batch``."""
    times, disagree = [], 0
    for i in range(SINGLE_ROW_CALLS):
        r = i % features.shape[0]
        t0 = time.perf_counter()
        label = disdf.predict(model, features[r])
        times.append(time.perf_counter() - t0)
        disagree += label != predictions[r]
    checks.expect(disagree == 0, f"predict() disagrees with predict_batch on {disagree} calls")
    return times


@dataclass
class Unit:
    """One timed unit of work: its wall time, its parts and what it produced."""

    seconds: float
    parts: dict
    outputs: dict
    fingerprint: str = ""
    variant: int = 0


def fresh(seq: np.random.SeedSequence) -> np.random.Generator:
    """A generator on a copy of ``seq``.

    ``Generator.spawn`` advances the SeedSequence it was built from, so two
    generators built from one SeedSequence object give different child
    streams; copies give both modes the same trees.
    """
    return np.random.default_rng(np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key))


def sample_query(shape: Shape, rng, rows: int):
    """Held-out rows from the same clusters, in the shape's class proportions."""
    share = np.array(shape.class_counts) / shape.n_rows
    counts = np.bincount(rng.choice(len(share), rows, p=share), minlength=len(share))
    return shape.sample(rng, counts)


def cascade_config(workload, mode):
    return disdf.TrainConfig(
        trees_per_forest=workload.trees,
        max_levels=workload.levels,
        patience=workload.levels,
        fw_iterations=workload.fw_iterations,
        mode=mode,
    )


@dataclass(frozen=True)
class HoldoutPaired:
    """One paired repetition: split, train both modes on it, score both."""

    name: str = "holdout-paired"
    shape: Shape = PARKINSONS
    n_train: int = 120
    n_test: int = 75
    trees: int = 10
    levels: int = 2
    fw_iterations: int = 2000
    variants: int = 8  # data sets, each with its own split, that units cycle through
    setup_repeats: int = 10  # a set-up takes tens of milliseconds; more samples steady it
    workers: int = 1  # a repetition runs serially, as in repeated_holdout
    parallel_unit: bool = False
    unit_name: str = "rep_s: one paired repetition"

    def setup(self, work, seed, workers):
        seqs = np.random.SeedSequence(seed).spawn(self.variants)
        return {"ds": [training_csv(self.shape, np.random.default_rng(s), work) for s in seqs]}

    def unit(self, state, workers, variant):
        # the seed picks the data sets and splits; unit i repeats variant i % variants
        split_seq, train_seq = np.random.SeedSequence(
            entropy=(state["seed"], 0), spawn_key=(variant,)).spawn(2)
        t0 = time.perf_counter()
        train, test = disdf.split(state["ds"][variant], self.n_train, self.n_test, split_seq)
        parts, models, predictions = {}, {}, {}
        for mode in (disdf.MODE_BASELINE, disdf.MODE_DISDF):
            t = time.perf_counter()
            models[mode] = disdf.train_cascade(
                train, cascade_config(self, mode), rng=fresh(train_seq), workers=workers
            )
            parts[f"train_{mode}_s"] = time.perf_counter() - t
            predictions[mode] = disdf.predict_batch(models[mode], test.features)
        seconds = time.perf_counter() - t0
        parts["rep_s"] = seconds
        return Unit(seconds, parts, {"test": test, "models": models, "predictions": predictions})

    def check(self, state, unit, checks, work):
        test, models = unit.outputs["test"], unit.outputs["models"]
        h = hashlib.sha256()
        for mode, model in models.items():
            checks.simplex(model, f"{mode} weights")
            unit.parts[f"accuracy_{mode}"] = checks.accuracy(
                model, test.features, test.labels, f"{mode} held-out"
            )
            checks.round_trip(model, os.path.join(work, f"{mode}.model"), test.features, mode)
            h.update(fingerprint(model, unit.outputs["predictions"][mode]).encode())
        state.setdefault("serve", (models[disdf.MODE_DISDF], test.features,
                                   unit.outputs["predictions"][disdf.MODE_DISDF]))
        unit.fingerprint = h.hexdigest()[:16]


@dataclass(frozen=True)
class TrainPairs:
    """``train_cascade`` in disdf mode on every row, with a process pool."""

    name: str = "train-pairs-2w"
    shape: Shape = IONOSPHERE
    trees: int = 10
    levels: int = 1  # one level keeps a unit short; see run.py on why that matters
    fw_iterations: int = 2000
    query_rows: int = 256
    variants: int = 1
    setup_repeats: int = 10  # a set-up takes milliseconds; more samples steady its median
    workers: int = 2
    parallel_unit: bool = True  # only this unit runs the process pool
    unit_name: str = "train_s: one 2-worker train_cascade"

    def setup(self, work, seed, workers):
        rng = np.random.default_rng(seed)
        ds = training_csv(self.shape, rng, work)
        q_features, q_ids = sample_query(self.shape, rng, self.query_rows)
        return {"ds": ds, "query": q_features, "query_labels": encode(ds, q_ids)}

    def unit(self, state, workers, variant):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(state["seed"], 1)))
        t0 = time.perf_counter()
        model = disdf.train_cascade(
            state["ds"], cascade_config(self, disdf.MODE_DISDF), rng=rng, workers=workers
        )
        seconds = time.perf_counter() - t0
        return Unit(seconds, {"train_s": seconds}, {"model": model})

    def check(self, state, unit, checks, work):
        model, query = unit.outputs["model"], state["query"]
        predictions = disdf.predict_batch(model, query)
        checks.simplex(model, "disdf weights")
        unit.parts["accuracy_disdf"] = checks.accuracy(
            model, query, state["query_labels"], "disdf held-out"
        )
        checks.round_trip(model, os.path.join(work, "disdf.model"), query, "disdf")
        state.setdefault("serve", (model, query, predictions))
        unit.fingerprint = fingerprint(model, predictions)


@dataclass(frozen=True)
class PredictMulticlass:
    """A predict job (load model, load features, predict) on a trained model."""

    name: str = "predict-multiclass"
    shape: Shape = ECOLI
    trees: int = 50
    levels: int = 1
    query_rows: int = 4096
    variants: int = 1
    setup_repeats: int = 3  # each set-up trains a model; keeps a run under a minute
    workers: int = 2  # trains the model in set-up
    parallel_unit: bool = False
    unit_name: str = "one predict job"

    def setup(self, work, seed, workers):
        rng = np.random.default_rng(seed)
        ds = training_csv(self.shape, rng, work)
        cfg = disdf.TrainConfig(
            trees_per_forest=self.trees,
            max_levels=self.levels,
            patience=self.levels,
            mode=disdf.MODE_BASELINE,
        )
        t = time.perf_counter()
        model = disdf.train_cascade(ds, cfg, rng=np.random.default_rng(seed), workers=workers)
        train_s = time.perf_counter() - t
        model_path = os.path.join(work, "model.bin")
        disdf.save_model(model, model_path)
        q_features, q_ids = sample_query(self.shape, rng, self.query_rows)
        query_path = os.path.join(work, "query.csv")
        write_csv(query_path, q_features)
        return {
            "model": model,
            "model_path": model_path,
            "query_path": query_path,
            "query_labels": encode(ds, q_ids),
            "train_s": train_s,
        }

    def unit(self, state, workers, variant):
        t0 = time.perf_counter()
        model = disdf.load_model(state["model_path"])
        query = disdf.load_features(state["query_path"])
        predictions = disdf.predict_batch(model, query)
        seconds = time.perf_counter() - t0
        parts = {"predict_rows_per_s": query.shape[0] / seconds}
        return Unit(seconds, parts, {"model": model, "query": query, "predictions": predictions})

    def check(self, state, unit, checks, work):
        model, query, predictions = (unit.outputs[k] for k in ("model", "query", "predictions"))
        if "serve" not in state:
            checks.simplex(model, "baseline weights")
            checks.accuracy(model, query, state["query_labels"], "baseline query")
            checks.expect(
                np.array_equal(predictions, disdf.predict_batch(state["model"], query)),
                "loaded model differs from the in-memory model",
            )
            state["serve"] = (model, query, predictions)
        unit.fingerprint = fingerprint(model, predictions)


WORKLOADS = {w.name: w for w in (HoldoutPaired(), TrainPairs(), PredictMulticlass())}


def tiny(workload):
    """A few trees and FW iterations: the same code paths in well under a second."""
    small = {"trees": 2, "setup_repeats": 1}
    if hasattr(workload, "fw_iterations"):
        small["fw_iterations"] = 5
    if hasattr(workload, "query_rows"):
        small["query_rows"] = 64
    return replace(workload, **small)

"""What a handful of seeded cascades compute, pinned against ``pinned_results.json``.

Each case trains a small cascade, or runs one ``repeated_holdout`` cell, on
seeded synthetic data.  Level 1's node tables are compared by the sha256 of
each array's little-endian bytes: growth is integer and elementwise float
arithmetic, so they do not depend on the platform.  Weights and class
vectors go through BLAS and numpy's CPU-dispatched kernels in the weight
solver and routing.  On the platform that wrote the file (the same
:func:`platform_key` and numpy version) they must repeat exactly, so a
change that moves any of them by one ulp fails; elsewhere they are compared
within ``TOL``.  The cases cover both modes, both forest kinds, 2 to 8 classes
(8 with pure and with impure leaves), 2 to 4 folds, 1 and 2 workers, full
and sampled pairs, and ``min_leaf``/``max_depth`` settings that leave leaves
impure.

``scripts/pin_results.py`` writes the JSON file, with the Python, numpy and
platform key that wrote it.  Regenerate it only for a change that is meant
to change results, and record the old and new digests with that change.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from disdf.cascade import augment_batch, class_vectors_batch, train_cascade
from disdf.config import TrainConfig
from disdf.data import Dataset
from disdf.evaluation import repeated_holdout

PINNED = Path(__file__).with_name("pinned_results.json")
# absolute tolerance on weights and class vectors off the platform that pinned them
TOL = 1e-9
# per forest, the node-table arrays digested and the dtype of their bytes
TABLE_ARRAYS = (
    ("feature", "<i4"),
    ("threshold", "<f8"),
    ("children", "<i4"),
    ("roots", "<i4"),
    ("dist", "<f8"),
)

# name -> (data: n, m, classes, seed, rounded; config; workers; holdout N and reps or None)
CASES = {
    "disdf-k3-w1": ((60, 5, 2, 1, False), dict(trees_per_forest=5, max_levels=3), 1, None),
    "disdf-k2-w2-budget-rounded": (
        (72, 6, 3, 2, True),
        dict(trees_per_forest=4, folds=2, pair_budget=40, max_levels=2),
        2,
        None,
    ),
    "baseline-k4-w1-minleaf3": (
        (64, 4, 3, 3, False),
        dict(trees_per_forest=4, folds=4, mode="baseline", min_leaf=3, max_levels=2),
        1,
        None,
    ),
    "disdf-k4-w2-depth2-budget": (
        (60, 5, 2, 4, False),
        dict(trees_per_forest=5, folds=4, max_depth=2, pair_budget=30, max_levels=2),
        2,
        None,
    ),
    "disdf-k3-w1-impure-3forests": (
        (66, 5, 4, 5, True),
        dict(trees_per_forest=4, forests_per_level=3, min_leaf=3, max_depth=2, max_levels=2),
        1,
        None,
    ),
    "baseline-k2-w2-rounded": (
        (56, 3, 2, 6, True),
        dict(trees_per_forest=6, folds=2, mode="baseline", max_levels=3),
        2,
        None,
    ),
    "disdf-k3-w2-minleaf3-rounded": (
        (70, 4, 2, 7, True),
        dict(trees_per_forest=6, min_leaf=3, fw_iterations=250, max_levels=2),
        2,
        None,
    ),
    "disdf-k3-w2-8class": ((96, 5, 8, 9, False), dict(trees_per_forest=5, max_levels=2), 2, None),
    # impure leaves, so class_sum adds 8 classes of fractions, whose sum depends on the order
    "disdf-k3-w2-8class-depth3": (
        (96, 5, 8, 10, False),
        dict(trees_per_forest=5, max_depth=3, max_levels=2),
        2,
        None,
    ),
    "holdout-k3-w1": (
        (90, 4, 3, 8, False),
        dict(trees_per_forest=3, max_levels=2),
        1,
        (30, 2),
    ),
}


def case_data(n, m, classes, seed, rounded) -> Dataset:
    """Overlapping Gaussian classes; ``rounded`` repeats values within columns."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % classes
    X = rng.normal(size=(n, m)) + 0.8 * y[:, None]
    return Dataset(np.round(X) if rounded else X, y, classes)


def platform_key() -> dict:
    """The machine and numpy's enabled CPU features, which pick the kernels
    and so the order in which numpy and its BLAS add."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "machine": platform.machine(),
        "numpy_cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def digest(a, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()


def case_results(name: str) -> dict:
    """What case ``name`` computes, as stored in ``pinned_results.json``."""
    data, settings, workers, holdout = CASES[name]
    ds = case_data(*data)
    cfg = TrainConfig(**{"fw_iterations": 150, "seed": 11, **settings})
    if holdout is not None:
        n_train, reps = holdout
        accs = repeated_holdout(ds, n_train, reps, cfg, workers=workers)
        return {"accuracies": {mode: list(a) for mode, a in accs.items()}}
    model = train_cascade(ds, cfg, workers=workers)
    X = ds.features[:6]
    vectors = []
    for level in model.levels:
        vectors += [class_vectors_batch(f, X).tolist() for f in level.forests]
        X = augment_batch(level, X)
    return {
        "levels_trained": len(model.level_scores),
        "levels_kept": model.n_levels,
        "level1_tables": [
            {key: digest(getattr(f, key), dtype) for key, dtype in TABLE_ARRAYS}
            for f in model.levels[0].forests
        ],
        "weights": [f.weights.tolist() for level in model.levels for f in level.forests],
        "class_vectors": vectors,
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


@pytest.fixture(scope="module")
def tolerance(pinned) -> float:
    """0, that is equality, on the platform and numpy that wrote the file; else ``TOL``."""
    here = pinned.get("platform") == platform_key() and pinned["numpy"] == np.__version__
    return 0.0 if here else TOL


def test_pinned_file_covers_every_case(pinned):
    assert sorted(pinned["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_reproduces_pinned_results(pinned, tolerance, name):
    want, got = pinned["cases"][name], case_results(name)
    assert got.keys() == want.keys()
    if "accuracies" in want:
        assert got == want
        return
    assert got["levels_trained"] == want["levels_trained"]
    assert got["levels_kept"] == want["levels_kept"]
    assert got["level1_tables"] == want["level1_tables"]
    for key in ("weights", "class_vectors"):
        assert len(got[key]) == len(want[key])
        for g, w in zip(got[key], want[key]):
            np.testing.assert_allclose(g, w, rtol=0, atol=tolerance)

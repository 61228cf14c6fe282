"""Cascade forest classifier with metric-learned per-tree weights."""

from .cascade import (
    CascadeModel,
    LevelModel,
    augment_batch,
    predict,
    predict_batch,
    train_cascade,
)
from .config import MODE_BASELINE, MODE_DISDF, TrainConfig
from .data import Dataset, fold_ids, load_csv, load_features, split
from .errors import (
    ConfigError,
    DataError,
    DegeneratePairsError,
    DimensionError,
    DisdfError,
    ModelFormatError,
    SingleClassError,
)
from .evaluation import GridResult, accuracy, repeated_holdout, run_grid
from .forest import (
    ForestModel,
    class_vectors_batch,
    train_forests,
    uniform_weights,
)
from .pairstats import PairStats, compute_pair_stats
from .serialize import load_model, save_model
from .tree import COMPLETELY_RANDOM, RANDOM_SPLIT, TreeParams
from .weightopt import ObjectiveParams, gradient, objective, solve_weights

__version__ = "0.1.0"

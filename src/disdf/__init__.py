"""Cascade forest classifier with metric-learned per-tree weights."""

from .cascade import (
    CascadeModel,
    LevelModel,
    augment_batch,
    predict,
    predict_batch,
    should_stop,
    train_cascade,
)
from .config import MODE_BASELINE, MODE_DISDF, TrainConfig
from .data import Dataset, kfold_indices, load_csv, load_features, split
from .errors import (
    ConfigError,
    DataError,
    DegeneratePairsError,
    DimensionError,
    DisdfError,
    ModelFormatError,
    SingleClassError,
)
from .evaluation import ExperimentGrid, GridResult, accuracy, repeated_holdout, run_grid
from .forest import (
    ForestModel,
    class_vectors_batch,
    forest_tree_dists_batch,
    train_forest,
    train_forests,
    uniform_weights,
)
from .pairstats import PairStats, compute_pair_stats
from .serialize import load_model, save_model
from .tree import COMPLETELY_RANDOM, RANDOM_SPLIT, TreeParams
from .weightopt import ObjectiveParams, frank_wolfe, gradient, objective

__version__ = "0.1.0"

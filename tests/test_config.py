import json

import numpy as np
import pytest

from disdf import cascade
from disdf.cascade import train_cascade
from disdf.config import TrainConfig
from disdf.errors import ConfigError
from disdf.pairstats import PairStats
from disdf.weightopt import ObjectiveParams
from tests.test_cascade import blobs, fast_cfg


@pytest.mark.parametrize(
    "field, bad",
    [
        ("seed", "abc"),  # a str for an int
        ("trees_per_forest", 2.5),  # a float for an int
        ("max_depth", 2.5),
        ("folds", True),  # a bool is no int
        ("lam", True),  # nor a float
        # JSON cannot hold numpy integers or bools, so a model file could not
        ("trees_per_forest", np.int64(3)),
        ("stratify", np.bool_(True)),
        ("stratify", "yes"),  # a str for a bool
        ("folds", None),  # None where the field is not optional
        ("tau", None),
    ],
)
def test_mistyped_value_rejected(field, bad):
    with pytest.raises(ConfigError, match=f"^{field} must be of type "):
        TrainConfig(**{field: bad}).validate()


def test_mistyped_value_rejected_before_any_tree_is_grown(monkeypatch):
    monkeypatch.setattr(cascade, "train_forests", None)
    with pytest.raises(ConfigError, match="trees_per_forest must be of type int"):
        train_cascade(blobs(n=24, seed=3), fast_cfg(trees_per_forest=np.int64(3)))


def test_ints_and_numpy_floats_are_floats():
    cfg = TrainConfig(tau=1, lam=np.float64(0.02), max_depth=None, pair_budget=None)
    assert cfg.validate() is cfg
    # and a model file's JSON holds them
    assert json.loads(json.dumps(cfg.to_dict()))["lam"] == 0.02


HUGE = 10**5000  # more digits than Python prints in decimal
BOUND_MESSAGES = [
    ({"folds": 1}, "folds must be >= 2"),
    ({"pair_budget": 0}, "pair_budget must be >= 1 or unset"),
    ({"tau": 0.0}, "tau must be finite and > 0, got 0.0"),
    ({"lam": -1.0}, "lambda must be finite and >= 0, got -1.0"),
    ({"seed": -1}, "seed must be >= 0"),
    # ints beyond float range
    pytest.param({"tau": 10**400}, f"tau must be finite and > 0, got {10**400}",
                 id="tau-beyond-float"),
    pytest.param({"lam": 10**400}, f"lambda must be finite and >= 0, got {10**400}",
                 id="lam-beyond-float"),
    ({"mode": "fast"}, "mode must be one of ('baseline', 'disdf'), got 'fast'"),
    pytest.param({"tau": True}, "tau must be of type float, got True", id="tau-bool"),
    pytest.param({"lam": True}, "lam must be of type float, got True", id="lam-bool"),
    # a refused value too long to print is named by its size
    pytest.param({"tau": HUGE}, "tau must be finite and > 0, got an int of 16610 bits",
                 id="tau-over-digit-limit"),
    pytest.param({"lam": HUGE}, "lambda must be finite and >= 0, got an int of 16610 bits",
                 id="lam-over-digit-limit"),
    pytest.param({"mode": HUGE}, "mode must be of type str, got an int of 16610 bits",
                 id="mode-over-digit-limit"),
    pytest.param({"stratify": HUGE}, "stratify must be of type bool, got an int of 16610 bits",
                 id="stratify-over-digit-limit"),
]


@pytest.mark.parametrize("values, message", BOUND_MESSAGES)
def test_bound_messages(values, message):
    with pytest.raises(ConfigError) as exc:
        TrainConfig(**values).validate()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "values, message",
    [row for row in BOUND_MESSAGES if {*getattr(row, "values", row)[0]} <= {"tau", "lam"}],
)
def test_objective_params_share_the_tau_and_lam_rules(values, message):
    params = {"tau": 0.5, "lam": 0.01, **values}
    stats = PairStats(pi=np.zeros(2), q_diff=np.empty((0, 2)), n_same=0)
    with pytest.raises(ValueError) as exc:
        ObjectiveParams(stats, **params)
    assert str(exc.value) == message

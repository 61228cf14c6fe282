"""Training configuration shared by the cascade trainer, benchmark, and CLI."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError
from .tree import COMPLETELY_RANDOM, RANDOM_SPLIT, TreeParams

MODE_DISDF = "disdf"
MODE_BASELINE = "baseline"
MODES = (MODE_BASELINE, MODE_DISDF)
# bound on a level's memory, charged once per level by cascade._train_level:
# its kept state, and per worker that runs at once its grower temporaries or
# one forest's pair statistics; compute_pair_stats checks a forest's pairs
# against it too.  It also keeps tree._packed_order's keys inside int64.
MEMORY_LIMIT = 1 << 30

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}
# the least value of each int field; an ``int | None`` one may also be unset
_LEAST = {"forests_per_level": 1, "trees_per_forest": 1, "max_levels": 1, "patience": 1,
          "folds": 2, "fw_iterations": 1, "pair_budget": 1, "seed": 0, "min_leaf": 1,
          "max_depth": 1}


def is_finite(value) -> bool:
    """Whether a real is neither infinite nor NaN and, if an int, fits in a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# the other fields' rules: whether a value is valid, and the error for one that is not
_RULES = {
    "tau": (lambda v: is_finite(v) and v > 0, "tau must be finite and > 0, got {}"),
    "lam": (lambda v: is_finite(v) and v >= 0, "lambda must be finite and >= 0, got {}"),
    "mode": (lambda v: v in MODES, f"mode must be one of {MODES}, got {{}}"),
}


def _parse_field(annotation: str, text: str):
    """A field's value from its text; ``X | None`` reads ``none`` or "" as None."""
    kind, _, optional = annotation.partition(" | ")
    text = text.strip()
    if optional == "None" and text.lower() in ("none", ""):
        return None
    if kind != "bool":
        return {"int": int, "float": float, "str": str}[kind](text)
    if text.lower() not in _BOOLS:
        raise ValueError(text)
    return _BOOLS[text.lower()]


def _where(origin: dict | None, key: str) -> str:
    return f"{origin[key]}: " if origin and key in origin else ""


def _show(value) -> str:
    """``repr(value)``, or the bit length of an int too long to print in decimal."""
    try:
        return repr(value)
    except ValueError:  # over sys.get_int_max_str_digits()
        return f"an int of {value.bit_length()} bits"


def _problem(name: str, annotation: str, value) -> str | None:
    """What is wrong with a field's value, or None; ``X | None`` also takes None."""
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional:
        return None
    if not isinstance(value, _TYPES[kind]) or isinstance(value, bool) != (kind == "bool"):
        return f"{name} must be of type {kind}, got {_show(value)}"
    if name in _LEAST and value < _LEAST[name]:
        return f"{name} must be >= {_LEAST[name]}" + (" or unset" if optional else "")
    if name in _RULES and not _RULES[name][0](value):
        return _RULES[name][1].format(_show(value))
    return None


@dataclass
class TrainConfig:
    """All training hyperparameters.

    Defaults follow the cascade-of-forests convention: four forests per level
    (two random-split-search, two completely-random), three-fold class-vector
    generation, and full-depth trees.
    """

    forests_per_level: int = 4
    trees_per_forest: int = 100
    max_levels: int = 10
    patience: int = 1
    folds: int = 3
    tau: float = 0.5
    lam: float = 0.01
    fw_iterations: int = 2000
    pair_budget: int | None = None
    seed: int = 0
    mode: str = MODE_DISDF
    min_leaf: int = 1
    max_depth: int | None = None
    stratify: bool = False

    def validate(self, origin: dict | None = None) -> "TrainConfig":
        """This config; an error about a key starts with its ``origin``, if any.

        Each value must be of its field's annotated type: a bool is no int,
        an int is a float, and numpy integers and bools are refused, as a
        model file's JSON cannot hold them.  An int must be at least its
        ``_LEAST`` value, and tau, lam and mode must pass their ``_RULES``.
        """
        for f in fields(self):
            problem = _problem(f.name, f.type, getattr(self, f.name))
            if problem:
                raise ConfigError(f"{_where(origin, f.name)}{problem}")
        return self

    def tree_params(self) -> TreeParams:
        return TreeParams(min_leaf=self.min_leaf, max_depth=self.max_depth)

    def forest_kinds(self) -> list[str]:
        """Per-slot tree kinds: alternating, starting with random-split-search."""
        return [
            RANDOM_SPLIT if k % 2 == 0 else COMPLETELY_RANDOM
            for k in range(self.forests_per_level)
        ]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict, origin: dict | None = None) -> "TrainConfig":
        """A validated config; an error about a key starts with its ``origin``."""
        unknown = [key for key in data if key not in cls.__dataclass_fields__]
        if unknown:
            raise ConfigError(
                f"{_where(origin, unknown[0])}unknown config keys: {unknown}"
            )
        return cls(**data).validate(origin)

    @classmethod
    def from_text(cls, text: dict, origin: dict | None = None) -> "TrainConfig":
        """:meth:`from_dict` of ``{field: text}``, parsed by the field annotations.

        Booleans are 1/true/yes/on or 0/false/no/off; ``none`` or "" is None
        for an ``int | None`` field.  ``origin`` maps a key to, e.g., ``file:line``.
        """
        values = dict(text)
        for f in fields(cls):
            if f.name in text:
                try:
                    values[f.name] = _parse_field(f.type, text[f.name])
                except ValueError:
                    raise ConfigError(
                        f"{_where(origin, f.name)}bad value for {f.name}: "
                        f"{text[f.name]!r}"
                    ) from None
        return cls.from_dict(values, origin)

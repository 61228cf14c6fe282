"""Training configuration shared by the cascade trainer, benchmark, and CLI."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError
from .tree import COMPLETELY_RANDOM, RANDOM_SPLIT, TreeParams

MODE_DISDF = "disdf"
MODE_BASELINE = "baseline"
MODES = (MODE_DISDF, MODE_BASELINE)

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


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

    def validate(self) -> "TrainConfig":
        if self.forests_per_level < 1:
            raise ConfigError("forests_per_level must be >= 1")
        if self.trees_per_forest < 1:
            raise ConfigError("trees_per_forest must be >= 1")
        if self.max_levels < 1:
            raise ConfigError("max_levels must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau must be finite and > 0, got {self.tau}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.fw_iterations < 1:
            raise ConfigError("fw_iterations must be >= 1")
        if self.pair_budget is not None and self.pair_budget < 1:
            raise ConfigError("pair_budget must be >= 1 or unset")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.min_leaf < 1:
            raise ConfigError("min_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1 or unset")
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
        return cls(**data).validate()

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

"""Training configuration shared by the cascade trainer, benchmark, and CLI."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError
from .tree import COMPLETELY_RANDOM, RANDOM_SPLIT, TreeParams

MODE_DISDF = "disdf"
MODE_BASELINE = "baseline"
MODES = (MODE_BASELINE, MODE_DISDF)

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

    def validate(self, origin: dict | None = None) -> "TrainConfig":
        """This config; an error about a key starts with its ``origin``, if any."""
        rules = (
            ("forests_per_level", self.forests_per_level >= 1,
             "forests_per_level must be >= 1"),
            ("trees_per_forest", self.trees_per_forest >= 1,
             "trees_per_forest must be >= 1"),
            ("max_levels", self.max_levels >= 1, "max_levels must be >= 1"),
            ("patience", self.patience >= 1, "patience must be >= 1"),
            ("folds", self.folds >= 2, "folds must be >= 2"),
            ("tau", math.isfinite(self.tau) and self.tau > 0,
             f"tau must be finite and > 0, got {self.tau}"),
            ("lam", math.isfinite(self.lam) and self.lam >= 0,
             f"lambda must be finite and >= 0, got {self.lam}"),
            ("fw_iterations", self.fw_iterations >= 1, "fw_iterations must be >= 1"),
            ("pair_budget", self.pair_budget is None or self.pair_budget >= 1,
             "pair_budget must be >= 1 or unset"),
            ("mode", self.mode in MODES, f"mode must be one of {MODES}, got {self.mode!r}"),
            ("min_leaf", self.min_leaf >= 1, "min_leaf must be >= 1"),
            ("max_depth", self.max_depth is None or self.max_depth >= 1,
             "max_depth must be >= 1 or unset"),
        )
        for key, ok, message in rules:
            if not ok:
                raise ConfigError(f"{_where(origin, key)}{message}")
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

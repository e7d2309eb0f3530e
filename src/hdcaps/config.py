"""Hyperparameter container shared by the model, trainer and CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass
class TrainConfig:
    """All knobs of the two-branch model and its optimizer.

    K capsules with C feature channels per point operate on b x b patches;
    the spectral branch lifts each pixel into G squashed groups of length
    d_cap (so its point sets live in G*d_cap dimensions). alpha/beta/gamma
    weight the spectral branch, elevation branch and attention-alignment
    terms of the total loss. Adam's beta1, beta2 and eps are not knobs:
    ``training`` holds them as constants, the published defaults.
    """

    lr: float = 0.001
    K: int = 15
    C: int = 50
    b: int = 5
    alpha: float = 0.5
    beta: float = 0.5
    gamma: float = 0.1
    batch: int = 64
    epochs: int = 30
    seed: int = 0
    G: int = 4
    d_cap: int = 4
    H: int = 32
    n_blocks: int = 2
    m: int = 2

    @property
    def d_h(self) -> int:
        return self.G * self.d_cap

    def validate(self) -> "TrainConfig":
        for name in ("lr", "alpha", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        for name in ("K", "C", "b", "batch", "G", "n_blocks", "m", "H"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.b % 2 == 0:
            raise ValueError("b must be odd so the patch has a center pixel")
        if self.d_cap < 2:
            raise ValueError("d_cap must be >= 2")
        for name in ("epochs", "seed", "alpha", "beta", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        return self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Validated config from outside data; unknown keys and mistyped
        values (bools, strings, floats for int fields) raise ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a mapping, got {type(d).__name__}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for name, value in d.items():
            integer = name in INT_FIELDS
            allowed = int if integer else (int, float)
            if isinstance(value, bool) or not isinstance(value, allowed):
                kind = "an integer" if integer else "a number"
                raise ValueError(f"config field {name!r} must be {kind}, got {value!r}")
        return cls(**d).validate()


INT_FIELDS = frozenset(f.name for f in fields(TrainConfig) if f.type in (int, "int"))

"""Hyperparameter container shared by the model, trainer and CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


@dataclass
class TrainConfig:
    """All knobs of the two-branch model and its optimizer.

    K capsules with C feature channels per point operate on b x b patches;
    the spectral branch lifts each pixel into G squashed groups of length
    d_cap (so its point sets live in G*d_cap dimensions). alpha/beta/gamma
    weight the spectral branch, elevation branch and attention-alignment
    terms of the total loss.
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
    adam_beta1: float = field(default=0.9, repr=False)
    adam_beta2: float = field(default=0.999, repr=False)
    adam_eps: float = field(default=1e-8, repr=False)

    @property
    def d_h(self) -> int:
        return self.G * self.d_cap

    def validate(self) -> "TrainConfig":
        for name in ("lr", "alpha", "beta", "gamma", "adam_beta1", "adam_beta2", "adam_eps"):
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
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be > 0")
        return self

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d).validate()

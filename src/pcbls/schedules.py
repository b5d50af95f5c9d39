"""Per-epoch smoothing-factor schedules.

The factor used during epoch e (0-indexed) is the schedule value at e, so
epoch 0 always trains with the initial factor. Five paradigms:

  exponential  init * rate^e, clamped below at floor        (rate < 1)
  linear       max(floor, init - rate*e)                    (rate > 0)
  anti         min(cap, init * rate^e)                      (rate > 1)
  random       uniform draw in [range_lo, range_hi), re-seeded per epoch
  constant     init at every epoch
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .seeding import rng_for

KINDS = ("exponential", "linear", "anti", "random", "constant")


@dataclass(frozen=True)
class SmoothingSchedule:
    kind: str
    init: float = 0.0
    rate: float = 0.0
    floor: float = 0.0
    cap: float = 0.5
    range_lo: float = 0.0
    range_hi: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        for name in ("init", "rate", "floor", "cap", "range_lo", "range_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.init < 0:
            raise ValueError("init must be non-negative")
        if self.kind == "exponential" and not (0.0 < self.rate < 1.0):
            raise ValueError("exponential schedule needs 0 < rate < 1")
        if self.kind == "anti" and not (self.rate > 1.0):
            raise ValueError("anti schedule needs rate > 1")
        if self.kind == "linear" and not (self.rate > 0.0):
            raise ValueError("linear schedule needs rate > 0")
        if self.kind == "random" and not (self.range_lo <= self.range_hi):
            raise ValueError("random schedule needs range_lo <= range_hi")

    def value_at(self, epoch: int) -> float:
        """Smoothing factor in force during ``epoch``; deterministic, also
        for the random kind (draw keyed by (seed, epoch))."""
        if epoch < 0:
            raise ValueError("epoch must be >= 0")
        if self.kind == "exponential":
            return max(self.floor, self.init * self.rate**epoch)
        if self.kind == "linear":
            return max(self.floor, self.init - self.rate * epoch)
        if self.kind == "anti":
            return min(self.cap, self.init * self.rate**epoch)
        if self.kind == "random":
            rng = rng_for(self.seed, "random-schedule", epoch)
            return float(rng.uniform(self.range_lo, self.range_hi))
        return self.init  # constant

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "init": self.init, "rate": self.rate, "floor": self.floor}
        if self.kind == "anti":
            d["cap"] = self.cap
        if self.kind == "random":
            d.update(range=[self.range_lo, self.range_hi], seed=self.seed)
        return d

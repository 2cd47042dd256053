"""Branch predictor interfaces and shared counter machinery."""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import TypeVar


def _check_pow2(value: int, what: str) -> None:
    if value < 1 or value & (value - 1):
        raise ValueError(f"{what} must be a positive power of two, got {value}")


class SaturatingCounter:
    """An n-bit saturating counter (the classic 2-bit by default)."""

    def __init__(self, bits: int = 2, initial: int = None):
        if bits < 1:
            raise ValueError("counter must have at least 1 bit")
        self.max = (1 << bits) - 1
        self.value = (self.max + 1) // 2 if initial is None else initial
        if not 0 <= self.value <= self.max:
            raise ValueError("initial value out of range")

    @property
    def taken(self) -> bool:
        """Predicted direction: weakly/strongly taken half of the range."""
        return self.value > self.max // 2

    def update(self, taken: bool) -> None:
        if taken:
            if self.value < self.max:
                self.value += 1
        elif self.value > 0:
            self.value -= 1


@dataclass
class PredictorStats:
    """Direction-prediction accounting shared by all predictors."""

    lookups: int = 0
    correct: int = 0

    @property
    def mispredicts(self) -> int:
        return self.lookups - self.correct

    @property
    def accuracy(self) -> float:
        return self.correct / self.lookups if self.lookups else 1.0

    def record(self, was_correct: bool) -> None:
        self.lookups += 1
        if was_correct:
            self.correct += 1


_P = TypeVar("_P", bound="DirectionPredictor")


class DirectionPredictor:
    """Interface for conditional-branch direction predictors.

    Subclasses implement :meth:`predict` and :meth:`update`; the pipeline
    calls predict at fetch and update at branch resolution.  The predictor
    may keep speculative state (e.g. gshare's history register); this model
    updates history non-speculatively at resolution, which is a common
    simplification for trace-driven simulators.
    """

    def __init__(self) -> None:
        self.stats = PredictorStats()

    def predict(self, pc: int) -> bool:
        raise NotImplementedError

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        raise NotImplementedError

    def observe(self, taken: bool, predicted: bool) -> None:
        """Record accuracy; subclasses call this from :meth:`update`."""
        self.stats.record(taken == predicted)

    def reset_stats(self) -> None:
        """Zero accuracy counters, keeping trained state (post-warmup)."""
        self.stats = PredictorStats()

    def copy(self: _P) -> _P:
        """An independent predictor with identical trained state and stats.

        Subclasses that hold tables or component predictors extend this.
        """
        clone = copy.copy(self)
        clone.stats = replace(self.stats)
        return clone

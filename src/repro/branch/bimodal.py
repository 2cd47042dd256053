"""Bimodal (per-PC 2-bit counter) direction predictor."""

from __future__ import annotations

from .base import DirectionPredictor, _check_pow2


class BimodalPredictor(DirectionPredictor):
    """A table of 2-bit saturating counters indexed by PC.

    This is SimpleScalar's ``bpred_2bit``: the PC (word-aligned, so the low
    two bits are dropped) selects a counter whose high half means "predict
    taken".
    """

    def __init__(self, entries: int = 2048, bits: int = 2):
        super().__init__()
        _check_pow2(entries, "bimodal entries")
        self.entries = entries
        self.bits = bits
        self.max = (1 << bits) - 1
        self._init = (self.max + 1) // 2
        self.table = [self._init] * entries

    def _index(self, pc: int) -> int:
        return (pc >> 2) & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] > self.max // 2

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        index = self._index(pc)
        value = self.table[index]
        if taken:
            if value < self.max:
                self.table[index] = value + 1
        elif value > 0:
            self.table[index] = value - 1
        self.observe(taken, predicted)

    def copy(self) -> "BimodalPredictor":
        clone = super().copy()
        clone.table = self.table[:]
        return clone

"""Gshare (global history XOR PC) direction predictor."""

from __future__ import annotations

from .base import DirectionPredictor, _check_pow2


class GsharePredictor(DirectionPredictor):
    """McFarling's gshare: PC XOR global-history indexes a counter table.

    History is updated at branch resolution (non-speculatively), the usual
    trace-driven simplification.
    """

    def __init__(self, entries: int = 4096, history_bits: int = 12, bits: int = 2):
        super().__init__()
        _check_pow2(entries, "gshare entries")
        if history_bits < 1:
            raise ValueError("history_bits must be >= 1")
        self.entries = entries
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.max = (1 << bits) - 1
        self.table = [(self.max + 1) // 2] * entries
        self.history = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & (self.entries - 1)

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
        self.history = ((self.history << 1) | int(taken)) & self.history_mask
        self.observe(taken, predicted)

    def copy(self) -> "GsharePredictor":
        clone = super().copy()
        clone.table = self.table[:]
        return clone

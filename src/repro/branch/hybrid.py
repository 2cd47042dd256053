"""Hybrid (tournament) predictor combining bimodal and gshare components."""

from __future__ import annotations

from .base import DirectionPredictor, _check_pow2
from .bimodal import BimodalPredictor
from .gshare import GsharePredictor


class HybridPredictor(DirectionPredictor):
    """McFarling's combining predictor, as in SimpleScalar's ``bpred_comb``.

    A chooser table of 2-bit counters (indexed by PC) selects between a
    bimodal and a gshare component; both components always train, and the
    chooser trains toward whichever component was right when they disagree.
    """

    def __init__(
        self,
        chooser_entries: int = 4096,
        bimodal: BimodalPredictor = None,
        gshare: GsharePredictor = None,
    ):
        super().__init__()
        _check_pow2(chooser_entries, "chooser entries")
        self.chooser_entries = chooser_entries
        self.chooser = [2] * chooser_entries  # weakly prefer gshare
        self.bimodal = bimodal if bimodal is not None else BimodalPredictor()
        self.gshare = gshare if gshare is not None else GsharePredictor()

    def _chooser_index(self, pc: int) -> int:
        return (pc >> 2) & (self.chooser_entries - 1)

    def predict(self, pc: int) -> bool:
        use_gshare = self.chooser[self._chooser_index(pc)] >= 2
        if use_gshare:
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        bimodal_pred = self.bimodal.predict(pc)
        gshare_pred = self.gshare.predict(pc)
        index = self._chooser_index(pc)
        if bimodal_pred != gshare_pred:
            value = self.chooser[index]
            if gshare_pred == taken:
                if value < 3:
                    self.chooser[index] = value + 1
            elif value > 0:
                self.chooser[index] = value - 1
        self.bimodal.update(pc, taken, bimodal_pred)
        self.gshare.update(pc, taken, gshare_pred)
        self.observe(taken, predicted)

    def copy(self) -> "HybridPredictor":
        clone = super().copy()
        clone.chooser = self.chooser[:]
        clone.bimodal = self.bimodal.copy()
        clone.gshare = self.gshare.copy()
        return clone

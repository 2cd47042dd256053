"""Branch target buffer."""

from __future__ import annotations

import copy
from typing import List, Optional, Tuple

from .base import _check_pow2


class BranchTargetBuffer:
    """Set-associative BTB mapping branch PCs to their last targets.

    The fetch stage uses the BTB to redirect after a predicted-taken
    branch.  A taken prediction with a BTB miss cannot be acted on (the
    target is unknown), so the pipeline treats it as a not-taken fetch and
    pays the misprediction penalty when the branch resolves.
    """

    def __init__(self, sets: int = 512, ways: int = 4):
        _check_pow2(sets, "BTB sets")
        if ways < 1:
            raise ValueError("BTB ways must be >= 1")
        self.sets = sets
        self.ways = ways
        # Each set is an LRU-ordered list of (tag, target); index 0 is MRU.
        self._sets: List[List[Tuple[int, int]]] = [[] for _ in range(sets)]
        self.hits = 0
        self.misses = 0

    def _locate(self, pc: int) -> Tuple[int, int]:
        index = (pc >> 2) & (self.sets - 1)
        tag = pc >> 2
        return index, tag

    def lookup(self, pc: int) -> Optional[int]:
        """Return the cached target for ``pc``, updating LRU, or ``None``."""
        index, tag = self._locate(pc)
        entries = self._sets[index]
        for position, (entry_tag, target) in enumerate(entries):
            if entry_tag == tag:
                if position:
                    entries.insert(0, entries.pop(position))
                self.hits += 1
                return target
        self.misses += 1
        return None

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the target for ``pc`` (LRU replacement)."""
        index, tag = self._locate(pc)
        entries = self._sets[index]
        for position, (entry_tag, _) in enumerate(entries):
            if entry_tag == tag:
                entries.pop(position)
                break
        entries.insert(0, (tag, target))
        if len(entries) > self.ways:
            entries.pop()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def reset_stats(self) -> None:
        """Zero hit/miss counters, keeping contents (post-warmup)."""
        self.hits = 0
        self.misses = 0

    def copy(self) -> "BranchTargetBuffer":
        """An independent BTB with identical contents, LRU order and counters."""
        clone = copy.copy(self)
        clone._sets = [entries[:] for entries in self._sets]  # entries are tuples
        return clone

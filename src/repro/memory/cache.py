"""Set-associative cache model with LRU replacement.

The timing models need latency and hit/miss accounting, not data movement:
tags are tracked exactly (sets × ways, LRU order, dirty bits for write-back
traffic stats), but cached data lives in the functional trace.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import List


def _check_pow2(value: int, what: str) -> None:
    if value < 1 or value & (value - 1):
        raise ValueError(f"{what} must be a positive power of two, got {value}")


@dataclass
class CacheStats:
    """Hit/miss/writeback accounting for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 1.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int = 64
    ways: int = 4
    hit_latency: int = 1

    def __post_init__(self) -> None:
        _check_pow2(self.line_bytes, "line_bytes")
        if self.ways < 1:
            raise ValueError("ways must be >= 1")
        if self.size_bytes < self.line_bytes * self.ways:
            raise ValueError("cache smaller than one set")
        if self.hit_latency < 1:
            raise ValueError("hit_latency must be >= 1")

    @property
    def sets(self) -> int:
        sets = self.size_bytes // (self.line_bytes * self.ways)
        _check_pow2(sets, "derived set count")
        return sets


@dataclass(slots=True)
class _Line:
    tag: int
    dirty: bool = False


class Cache:
    """One cache level.  ``probe`` answers hit/miss and updates state.

    The cache is write-back, write-allocate.  ``probe`` returns whether the
    access hit and, on a miss that evicted a dirty line, counts a
    writeback.  Latency composition across levels is the hierarchy's job.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.sets = config.sets
        self.stats = CacheStats()
        # Geometry is validated power-of-two, so indexing reduces to
        # shifts/masks (the hot probe path runs once per cache access).
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = self.sets - 1
        self._set_shift = self.sets.bit_length() - 1
        self._ways = config.ways
        # set index -> LRU-ordered list of lines (index 0 = MRU)
        self._lines: List[List[_Line]] = [[] for _ in range(self.sets)]

    def _locate(self, addr: int) -> tuple:
        line_addr = addr >> self._line_shift
        return line_addr & self._set_mask, line_addr >> self._set_shift

    def probe(self, addr: int, is_write: bool = False) -> bool:
        """Access ``addr``; returns True on hit.  Allocates on miss."""
        stats = self.stats
        stats.accesses += 1
        line_addr = addr >> self._line_shift
        lines = self._lines[line_addr & self._set_mask]
        tag = line_addr >> self._set_shift
        for position, line in enumerate(lines):
            if line.tag == tag:
                if position:
                    lines.insert(0, lines.pop(position))
                if is_write:
                    line.dirty = True
                stats.hits += 1
                return True
        stats.misses += 1
        lines.insert(0, _Line(tag=tag, dirty=is_write))
        if len(lines) > self._ways:
            victim = lines.pop()
            if victim.dirty:
                stats.writebacks += 1
        return False

    def contains(self, addr: int) -> bool:
        """Non-destructive tag check (no stats, no LRU update)."""
        index, tag = self._locate(addr)
        return any(line.tag == tag for line in self._lines[index])

    def flush(self) -> None:
        """Invalidate all lines (keeps statistics)."""
        self._lines = [[] for _ in range(self.sets)]

    def reset_stats(self) -> None:
        """Zero the counters (keeps contents — used after warmup)."""
        self.stats = CacheStats()

    def copy(self) -> "Cache":
        """An independent cache with identical contents, LRU order and stats."""
        clone = copy.copy(self)
        clone.stats = replace(self.stats)
        clone._lines = [
            [_Line(line.tag, line.dirty) for line in lines] for lines in self._lines
        ]
        return clone


__all__ = ["Cache", "CacheConfig", "CacheStats"]

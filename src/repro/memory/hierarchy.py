"""Two-level cache hierarchy with a bandwidth-limited DRAM behind it.

The paper keeps the memory system *outside* the Sphere of Replication: a
DIE core performs each memory access once, so SIE and DIE configurations
share this exact model and the same traffic (Section 2.1).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

from .cache import Cache, CacheConfig
from .dram import DRAM, DRAMConfig


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache/DRAM parameters for the whole hierarchy.

    Defaults follow a paper-era SimpleScalar configuration: a 64 KiB L1I,
    a 32 KiB L1D, a unified 512 KiB L2, and a ~75 ns main memory at 2 GHz.
    """

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1I", size_bytes=64 * 1024, line_bytes=64, ways=2, hit_latency=1
        )
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1D", size_bytes=32 * 1024, line_bytes=64, ways=4, hit_latency=2
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L2", size_bytes=512 * 1024, line_bytes=128, ways=8, hit_latency=12
        )
    )
    dram: DRAMConfig = field(default_factory=DRAMConfig)


class MemoryHierarchy:
    """Composes L1I/L1D, a unified L2, and DRAM into latency answers."""

    def __init__(self, config: Optional[HierarchyConfig] = None):
        self.config = config if config is not None else HierarchyConfig()
        self.l1i = Cache(self.config.l1i)
        self.l1d = Cache(self.config.l1d)
        self.l2 = Cache(self.config.l2)
        self.dram = DRAM(self.config.dram)

    def _through_l2(self, addr: int, now: int, is_write: bool) -> int:
        if self.l2.probe(addr, is_write=is_write):
            return self.l2.config.hit_latency
        return self.l2.config.hit_latency + self.dram.access(now)

    def fetch(self, pc: int, now: int) -> int:
        """Instruction fetch of the block containing ``pc``; returns cycles."""
        if self.l1i.probe(pc):
            return self.l1i.config.hit_latency
        return self.l1i.config.hit_latency + self._through_l2(pc, now, False)

    def load(self, addr: int, now: int) -> int:
        """Data load; returns total cycles to data."""
        if self.l1d.probe(addr):
            return self.l1d.config.hit_latency
        return self.l1d.config.hit_latency + self._through_l2(addr, now, False)

    def store(self, addr: int, now: int) -> int:
        """Data store (write-allocate); returns cycles to completion.

        Stores retire through a store buffer, so the returned latency only
        gates LSQ slot reuse, not instruction commit.
        """
        if self.l1d.probe(addr, is_write=True):
            return self.l1d.config.hit_latency
        return self.l1d.config.hit_latency + self._through_l2(addr, now, True)

    def copy(self) -> "MemoryHierarchy":
        """An independent hierarchy in exactly this state (warm-starts)."""
        clone = copy.copy(self)
        clone.l1i = self.l1i.copy()
        clone.l1d = self.l1d.copy()
        clone.l2 = self.l2.copy()
        clone.dram = copy.copy(self.dram)  # counters and bus state are ints
        return clone

    def reset_stats(self) -> None:
        """Zero all counters, keeping cache contents (post-warmup)."""
        self.l1i.reset_stats()
        self.l1d.reset_stats()
        self.l2.reset_stats()
        self.dram.reset_stats()

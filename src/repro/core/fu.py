"""Functional-unit pool with per-unit occupancy tracking.

Each class has N units.  A unit accepts a new operation when its
``busy_until`` time has passed; issuing an operation occupies the unit for
the op's initiation interval (1 cycle for fully pipelined ops, the full
latency for unpipelined dividers and square-rooters).  This uniform rule
models both pipelined and unpipelined units exactly.
"""

from __future__ import annotations

from typing import Dict, List

from ..isa import FUClass, OpTiming


class FUPool:
    """Tracks availability of every functional unit."""

    def __init__(self, counts: Dict[FUClass, int]):
        self._busy_until: Dict[FUClass, List[int]] = {
            fu: [0] * count for fu, count in counts.items() if count > 0
        }
        self.counts = dict(counts)

    def can_issue(self, fu: FUClass, cycle: int) -> bool:
        """True if some unit of class ``fu`` is free at ``cycle``."""
        units = self._busy_until.get(fu)
        if units is None:
            return False
        return any(busy <= cycle for busy in units)

    def issue(self, fu: FUClass, cycle: int, timing: OpTiming) -> bool:
        """Claim a unit of class ``fu`` at ``cycle``; False if none free.

        Units are interchangeable and a unit free at ``cycle`` stays free,
        so claiming the least busy one is the same as claiming any free
        one.  ``OOOPipeline._try_issue`` inlines this rule.
        """
        units = self._busy_until.get(fu)
        if not units:
            return False
        free = min(units)
        if free > cycle:
            return False
        units[units.index(free)] = cycle + timing.init_interval
        return True

    def units(self, fu: FUClass) -> List[int]:
        """The live busy-until list of class ``fu`` (empty if none).

        The issue stage claims units through this list directly.
        """
        return self._busy_until.get(fu, [])

    def free_units(self, fu: FUClass, cycle: int) -> int:
        """Number of free units of class ``fu`` at ``cycle``."""
        units = self._busy_until.get(fu, ())
        return sum(1 for busy in units if busy <= cycle)

"""Functional-unit pool with per-unit occupancy tracking.

Each class has N units, each a ``busy_until`` cycle.  A unit accepts a
new operation once that cycle has passed; issuing an operation occupies
the unit for the op's initiation interval (1 cycle for fully pipelined
ops, the full latency for unpipelined dividers and square-rooters).
This uniform rule models both pipelined and unpipelined units exactly.
The issue stage applies it (``OOOPipeline._try_issue``) to the live
lists :meth:`FUPool.units` hands out.
"""

from __future__ import annotations

from typing import Dict, List

from ..isa import FUClass


class FUPool:
    """Tracks availability of every functional unit."""

    def __init__(self, counts: Dict[FUClass, int]):
        self._busy_until: Dict[FUClass, List[int]] = {
            fu: [0] * count for fu, count in counts.items() if count > 0
        }
        self.counts = dict(counts)

    def units(self, fu: FUClass) -> List[int]:
        """The live busy-until list of class ``fu`` (empty if none)."""
        return self._busy_until.get(fu, [])

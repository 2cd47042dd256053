"""SIE-IRB: classic dynamic instruction reuse on a single stream [29].

This is the prior-work baseline the paper departs from.  Every instruction
probes the IRB; a reuse hit bypasses the functional units but — unlike
DIE-IRB — the IRB behaves as a functional unit: hits are *selected* (they
consume issue bandwidth) and their results are broadcast to the issue
window, which is exactly the wakeup/bypass complexity the paper's design
avoids.  Citron's observation [12] that reuse helps a balanced SIE core
only modestly (it is not ALU-bound) is reproducible with this model.
"""

from __future__ import annotations

import heapq
from typing import Optional

from ..core import MachineConfig, OOOPipeline
from ..core.dyninst import DynInst
from ..isa import FUClass
from ..workloads import Trace
from .entry import IRBEntry
from .irb import IRBConfig, IRBFrontEnd


class SIEIRBPipeline(IRBFrontEnd, OOOPipeline):
    """Single-stream out-of-order core with a Sodani/Sohi-style IRB."""

    name = "SIE-IRB"

    def __init__(
        self,
        trace: Trace,
        config: Optional[MachineConfig] = None,
        irb_config: Optional[IRBConfig] = None,
    ):
        if irb_config is not None and irb_config.name_based:
            # Sodani & Sohi's scheme compares values; only DIE-IRB
            # implements Section 3.3's name-based variant.
            raise ValueError("SIE-IRB is value-based: name_based is not supported")
        super().__init__(trace, config)
        self._attach_irb(irb_config)

    def _reuse_complete(self, inst: DynInst, entry: IRBEntry, cycle: int) -> None:
        # The hit still goes through select (the IRB acts as an FU with
        # its own result ports): it waits in the NONE lane, needing no FU.
        heapq.heappush(self._lanes[FUClass.NONE], (inst.uid, inst))

"""DIE-IRB: the paper's contribution.

The duplicate stream probes the IRB in parallel with fetch (Section 3.2's
pipelined lookup).  Wakeup of *both* streams is driven by primary-stream
results — the key DIE property of Section 3.3 — so the IRB needs no
result-forwarding buses into the issue window.  When a duplicate's
operands arrive, the reuse test (two comparators per issue-window slot,
the Rdy2L/Rdy2R logic) runs in parallel with operand capture:

* test passes → the duplicate picks up the IRB result and proceeds
  directly to the commit stage, consuming **no issue slot and no ALU**;
* test fails (or the PC missed, or the lookup was port-starved) → the
  duplicate contends for the functional units exactly as in base DIE.

The IRB is updated at commit, off the critical path, through its write
ports; it lies inside the Sphere of Replication and needs no ECC because
every value it supplies is checked against the primary's FU execution.
The probe, reuse test and install are :class:`~repro.reuse.irb.IRBFrontEnd`'s.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core import MachineConfig
from ..core.dyninst import DynInst
from ..isa import TraceInst
from ..redundancy import DIEPipeline
from ..workloads import Trace
from .entry import IRBEntry
from .irb import IRBConfig, IRBFrontEnd


class DIEIRBPipeline(IRBFrontEnd, DIEPipeline):
    """Dual Instruction Execution with an Instruction Reuse Buffer."""

    name = "DIE-IRB"

    #: The duplicate probes; the primary always executes on the FUs.
    PROBE_ENTRY = 1

    #: Section 3.3: results from the primary stream wake waiting
    #: instructions of BOTH streams, so the IRB never forwards.
    WAKE_FROM_PRIMARY = True

    def __init__(
        self,
        trace: Trace,
        config: Optional[MachineConfig] = None,
        irb_config: Optional[IRBConfig] = None,
    ):
        super().__init__(trace, config)
        self._attach_irb(irb_config)

    # ------------------------------------------------------------------
    # Name-based operands (Section 3.3's variant)
    # ------------------------------------------------------------------

    def _hook_make_entries(self, inst: TraceInst, stream: int) -> List[DynInst]:
        entries = super()._hook_make_entries(inst, stream)
        if self.irb.config.name_based:
            # Capture operand names at rename time — versions seen at the
            # instruction's own dispatch.  Comparing two instances'
            # captured views is sound: equal (reg, version) pairs mean the
            # same producers, hence the same values.  Then bump the
            # destination's version so later readers see a new binding.
            name_ops = self._name_operands(inst)
            entries[0].name_ops = name_ops
            entries[1].name_ops = name_ops
            if inst.dst is not None and inst.dst != 0:
                self.irb.note_reg_write(inst.dst)
        return entries

    def _hook_dispatch_blocked(self, inst: TraceInst) -> None:
        # The discarded pair's name-version bump, beside the probe.
        if self.irb.config.name_based and inst.dst is not None and inst.dst != 0:
            self.irb.note_reg_write(inst.dst)
        super()._hook_dispatch_blocked(inst)

    def _name_operands(self, trace: TraceInst) -> Tuple[object, object]:
        versions = self.irb.reg_versions
        op1 = (trace.src1, versions[trace.src1]) if trace.src1 is not None else None
        op2 = (trace.src2, versions[trace.src2]) if trace.src2 is not None else None
        return op1, op2

    # ------------------------------------------------------------------
    # Reuse hits bypass execute
    # ------------------------------------------------------------------

    def _reuse_complete(self, inst: DynInst, entry: IRBEntry, cycle: int) -> None:
        """Bypass execute: take the IRB result, go straight to completion."""
        inst.issued = True
        if inst.dec.mem:
            inst.mem_addr = entry.result
        else:
            inst.result = entry.result
        self._schedule(cycle + 1, "complete", inst)

    def _on_mismatch(self, primary: DynInst) -> None:
        # A reuse hit fed by a corrupted entry would hit again on
        # re-execution; drop the entry so the rewind makes forward progress
        # (the commit-time install will repopulate it with checked values).
        if primary.pair.reuse_hit:
            self.irb.invalidate(primary.trace.pc)

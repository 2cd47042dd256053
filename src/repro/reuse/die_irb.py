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
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core import MachineConfig, SimStats
from ..core.decoded import OP_META
from ..core.dyninst import PRIMARY, DynInst
from ..isa import TraceInst
from ..redundancy import CommitChecker, DIEPipeline
from ..telemetry.events import (
    IRB_LOOKUP,
    IRB_PC_HIT,
    IRB_PORT_STARVED,
    IRB_REUSE_HIT,
    IRB_WRITE,
    NULL_TRACER,
    IRBEvent,
)
from ..workloads import Trace
from .entry import IRBEntry
from .irb import IRB, IRBConfig
from .ports import PortArbiter


class DIEIRBPipeline(DIEPipeline):
    """Dual Instruction Execution with an Instruction Reuse Buffer."""

    name = "DIE-IRB"

    def __init__(
        self,
        trace: Trace,
        config: Optional[MachineConfig] = None,
        irb_config: Optional[IRBConfig] = None,
        checker: Optional[CommitChecker] = None,
    ):
        super().__init__(trace, config, checker)
        self.irb = IRB(irb_config)
        self.ports = PortArbiter(
            self.irb.config.read_ports,
            self.irb.config.write_ports,
            self.irb.config.rw_ports,
        )
        # How far past dispatch the pipelined lookup lands (see _probe).
        self._lookup_residual = max(
            0, self.irb.config.lookup_latency - self.config.frontend_latency
        )

    # ------------------------------------------------------------------
    # Fetch-side: pipelined IRB lookup
    # ------------------------------------------------------------------

    def _hook_make_entries(self, inst: TraceInst) -> List[DynInst]:
        entries = super()._hook_make_entries(inst)
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
        if entries[1].dec.reusable:
            self._probe(entries[1])
        return entries

    def _hook_dispatch_blocked(self, inst: TraceInst) -> None:
        # Exactly the side effects _hook_make_entries has beyond building
        # the (discarded) pair: the name-version bump and the IRB probe —
        # the probe moves port accounting and statistics per dispatch
        # *attempt*, so a blocked cycle must still perform it.
        if self.irb.config.name_based and inst.dst is not None and inst.dst != 0:
            self.irb.note_reg_write(inst.dst)
        if OP_META[inst.opcode].reusable:
            self._probe_pc(inst.pc, inst.opcode)

    def _probe(self, duplicate: DynInst) -> None:
        """IRB lookup for one duplicate.

        The paper starts the pipelined lookup in parallel with fetch, so
        by dispatch the access is (lookup_latency - frontend_latency)
        cycles from done.  Ports are accounted here, at dispatch, because
        the sustained probe rate is the effective dispatch rate — fetch
        groups are bursty and would overstate contention.
        """
        trace = duplicate.trace
        entry = self._probe_pc(trace.pc, trace.opcode)
        if entry is not None:
            duplicate.irb_entry = entry
            duplicate.irb_ready_cycle = self.cycle + self._lookup_residual

    def _probe_pc(self, pc: int, opcode: object) -> Optional[IRBEntry]:
        """One probe's accounting (stats, ports, lookup, telemetry)."""
        stats = self.stats
        stats.irb_lookups += 1
        tracer = self.tracer
        tracing = tracer is not NULL_TRACER
        if tracing:
            tracer.emit(IRBEvent(IRB_LOOKUP, self.cycle, pc, opcode))
        if not self.ports.try_read(self.cycle):
            # All read ports busy this cycle: the probe is abandoned and
            # the duplicate will execute on the FUs (counted, rare).
            stats.irb_port_starved += 1
            if tracing:
                tracer.emit(IRBEvent(IRB_PORT_STARVED, self.cycle, pc))
            return None
        entry = self.irb.lookup(pc)
        if entry is not None:
            stats.irb_pc_hits += 1
            if tracing:
                tracer.emit(IRBEvent(IRB_PC_HIT, self.cycle, pc, opcode))
        return entry

    # ------------------------------------------------------------------
    # Wakeup: primary results feed both streams; reuse test at capture
    # ------------------------------------------------------------------

    def _hook_source_stream(self, inst: DynInst) -> int:
        # Section 3.3: results from the primary stream wake waiting
        # instructions of BOTH streams, so the IRB never forwards.
        return PRIMARY

    def _hook_on_ready(self, inst: DynInst, cycle: int) -> None:
        entry = inst.irb_entry
        if inst.stream and entry is not None:
            if cycle < inst.irb_ready_cycle:
                # Operands beat the pipelined lookup; retest when it lands.
                self._schedule(inst.irb_ready_cycle, "reready", inst)
                return
            if self._reuse_test(inst, entry):
                self._reuse_complete(inst, entry, cycle)
                return
        super()._hook_on_ready(inst, cycle)

    def _reuse_test(self, inst: DynInst, entry: IRBEntry) -> bool:
        trace = inst.trace
        if self.irb.config.name_based:
            return (entry.op1, entry.op2) == inst.name_ops
        return entry.matches_values(trace.src1_val, trace.src2_val)

    def _reuse_complete(self, inst: DynInst, entry: IRBEntry, cycle: int) -> None:
        """Bypass execute: take the IRB result, go straight to completion."""
        inst.reuse_hit = True
        inst.issued = True
        if inst.dec.mem:
            inst.mem_addr = entry.result
        else:
            inst.result = entry.result
        self.irb.touch(entry)
        self.stats.irb_reuse_hits += 1
        tracer = self.tracer
        if tracer is not NULL_TRACER:
            tracer.emit(
                IRBEvent(IRB_REUSE_HIT, cycle, inst.trace.pc, inst.trace.opcode)
            )
        self._schedule(cycle + 1, "complete", inst)

    # ------------------------------------------------------------------
    # Commit-side: IRB installs through the write ports
    # ------------------------------------------------------------------

    def _hook_post_commit(self, insts: List[DynInst]) -> None:
        name_based = self.irb.config.name_based
        tracer = self.tracer
        for inst in insts:
            if inst.stream != PRIMARY:
                continue
            trace = inst.trace
            if inst.dec.reusable and not inst.pair.reuse_hit:
                if name_based:
                    op1, op2 = inst.name_ops
                else:
                    op1, op2 = trace.src1_val, trace.src2_val
                # What the IRB stores: address for mem ops, outcome otherwise.
                result = trace.mem_addr if inst.dec.mem else trace.result
                self.irb.enqueue_write(trace.pc, op1, op2, result)
                if tracer is not NULL_TRACER:
                    tracer.emit(
                        IRBEvent(IRB_WRITE, self.cycle, trace.pc, trace.opcode)
                    )

    def _name_operands(self, trace: TraceInst) -> Tuple[object, object]:
        versions = self.irb.reg_versions
        op1 = (trace.src1, versions[trace.src1]) if trace.src1 is not None else None
        op2 = (trace.src2, versions[trace.src2]) if trace.src2 is not None else None
        return op1, op2

    def _hook_tick(self) -> None:
        irb = self.irb
        if irb.write_q:
            irb.drain(self.ports, self.cycle)

    # ------------------------------------------------------------------

    def _on_mismatch(self, primary: DynInst) -> None:
        # A reuse hit fed by a corrupted entry would hit again on
        # re-execution; drop the entry so the rewind makes forward progress
        # (the commit-time install will repopulate it with checked values).
        if primary.pair.reuse_hit:
            self.irb.invalidate(primary.trace.pc)

    def run(self, max_cycles: Optional[int] = None) -> SimStats:
        stats = super().run(max_cycles)
        stats.irb_writes = self.irb.stats.writes
        stats.irb_write_drops = self.irb.stats.write_drops
        return stats

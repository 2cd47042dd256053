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
from typing import List, Optional

from ..core import MachineConfig, OOOPipeline, SimStats
from ..core.decoded import OP_META
from ..core.dyninst import DynInst
from ..isa import FUClass, TraceInst
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
from .irb import IRB, IRBConfig
from .ports import PortArbiter


class SIEIRBPipeline(OOOPipeline):
    """Single-stream out-of-order core with a Sodani/Sohi-style IRB."""

    name = "SIE-IRB"

    def __init__(
        self,
        trace: Trace,
        config: Optional[MachineConfig] = None,
        irb_config: Optional[IRBConfig] = None,
    ):
        super().__init__(trace, config)
        self.irb = IRB(irb_config)
        self.ports = PortArbiter(
            self.irb.config.read_ports,
            self.irb.config.write_ports,
            self.irb.config.rw_ports,
        )
        # How far past dispatch the pipelined lookup lands.
        self._lookup_residual = max(
            0, self.irb.config.lookup_latency - self.config.frontend_latency
        )

    # ------------------------------------------------------------------

    def _hook_make_entries(self, inst: TraceInst) -> List[DynInst]:
        entries = super()._hook_make_entries(inst)
        if entries[0].dec.reusable:
            entry = self._probe_pc(inst.pc, inst.opcode)
            if entry is not None:
                entries[0].irb_entry = entry
                entries[0].irb_ready_cycle = self.cycle + self._lookup_residual
        return entries

    def _hook_dispatch_blocked(self, inst: TraceInst) -> None:
        # A rejected dispatch attempt still probes the IRB (stats and
        # port accounting), exactly as the discarded construction did.
        if OP_META[inst.opcode].reusable:
            self._probe_pc(inst.pc, inst.opcode)

    def _probe_pc(self, pc: int, opcode: object):
        """One probe's accounting (stats, ports, lookup, telemetry)."""
        stats = self.stats
        stats.irb_lookups += 1
        tracer = self.tracer
        tracing = tracer is not NULL_TRACER
        if tracing:
            tracer.emit(IRBEvent(IRB_LOOKUP, self.cycle, pc, opcode))
        if not self.ports.try_read(self.cycle):
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

    def _hook_on_ready(self, inst: DynInst, cycle: int) -> None:
        entry = inst.irb_entry
        if entry is not None and not inst.reuse_hit:
            if cycle < inst.irb_ready_cycle:
                self._schedule(inst.irb_ready_cycle, "reready", inst)
                return
            trace = inst.trace
            if entry.matches_values(trace.src1_val, trace.src2_val):
                # The hit is known, but in the classic scheme the
                # instruction still goes through select (the IRB acts as an
                # FU with its own result ports).
                inst.reuse_hit = True
                self.irb.touch(entry)
                self.stats.irb_reuse_hits += 1
                tracer = self.tracer
                if tracer is not NULL_TRACER:
                    tracer.emit(
                        IRBEvent(IRB_REUSE_HIT, cycle, trace.pc, trace.opcode)
                    )
        if inst.reuse_hit:
            # No FU needed: the hit waits in the NONE lane.
            heapq.heappush(self._lanes[FUClass.NONE], (inst.uid, inst))
        else:
            super()._hook_on_ready(inst, cycle)

    # ------------------------------------------------------------------

    def _hook_post_commit(self, insts: List[DynInst]) -> None:
        tracer = self.tracer
        for inst in insts:
            trace = inst.trace
            if inst.dec.reusable and not inst.reuse_hit:
                result = trace.mem_addr if inst.dec.mem else trace.result
                self.irb.enqueue_write(
                    trace.pc, trace.src1_val, trace.src2_val, result
                )
                if tracer is not NULL_TRACER:
                    tracer.emit(
                        IRBEvent(IRB_WRITE, self.cycle, trace.pc, trace.opcode)
                    )

    def _hook_tick(self) -> None:
        irb = self.irb
        if irb.write_q:
            irb.drain(self.ports, self.cycle)

    def run(self, max_cycles: Optional[int] = None) -> SimStats:
        stats = super().run(max_cycles)
        stats.irb_writes = self.irb.stats.writes
        stats.irb_write_drops = self.irb.stats.write_drops
        return stats

"""The Instruction Reuse Buffer (IRB).

A small PC-indexed table of previously executed instructions with their
operand values and results (Sodani & Sohi's scheme "Sv" [29], as adopted
by the paper).  The paper's design point is a 1024-entry direct-mapped
buffer with a 3-stage pipelined access at 2 GHz (validated by the authors
with Cacti 3.2); associativity and a CTR-guided replacement policy are
modelled for the conflict-miss study.

The IRB stores *committed* state only: entries are installed at commit
through a small write queue bounded by the write ports, so the timing
model never has to roll IRB contents back on a squash.

:class:`IRBFrontEnd` is the buffer's pipeline-facing protocol, shared by
the SIE-IRB and DIE-IRB timing models: the pipelined PC probe, the reuse
test at operand capture, and the commit-time install with its drain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from ..core import SimStats
from ..core.decoded import OP_META
from ..core.dyninst import DynInst
from ..isa import NUM_REGS, TraceInst
from ..telemetry.events import (
    IRB_LOOKUP,
    IRB_PC_HIT,
    IRB_PORT_STARVED,
    IRB_REUSE_HIT,
    IRB_WRITE,
    NULL_TRACER,
)
from .entry import IRBEntry
from .ports import PortArbiter


@dataclass(frozen=True)
class IRBConfig:
    """IRB geometry, ports and policies.

    Attributes:
        entries: total entry count (1024 in the paper).
        ways: set associativity (1 = direct-mapped, the paper's default).
        read_ports / write_ports / rw_ports: port provisioning
            (4/2/2 in the paper).
        lookup_latency: pipelined access depth in cycles (3 at 2 GHz).
        replacement: ``"always"`` (plain direct-mapped overwrite / set-LRU)
            or ``"ctr"`` (the conflict-reduction mechanism: a hot entry
            defends its slot by decrementing its reuse counter instead of
            being evicted).
        ctr_bits: width of the saturating reuse counter.
        name_based: store register names+versions instead of operand
            values (Section 3.3's variant for non-data-capture schedulers).
        write_queue_depth: pending commit-time installs; overflow drops
            the oldest write (counted, never blocks commit).
    """

    entries: int = 1024
    ways: int = 1
    read_ports: int = 4
    write_ports: int = 2
    rw_ports: int = 2
    lookup_latency: int = 3
    replacement: str = "always"
    ctr_bits: int = 2
    name_based: bool = False
    write_queue_depth: int = 8

    def __post_init__(self) -> None:
        if self.entries < 1 or self.entries & (self.entries - 1):
            raise ValueError("entries must be a positive power of two")
        if self.ways < 1 or self.entries % self.ways:
            raise ValueError("ways must divide entries")
        if self.replacement not in ("always", "ctr"):
            raise ValueError(f"unknown replacement {self.replacement!r}")
        if self.lookup_latency < 1:
            raise ValueError("lookup_latency must be >= 1")
        if self.write_queue_depth < 1:
            raise ValueError("write_queue_depth must be >= 1")

    @property
    def sets(self) -> int:
        return self.entries // self.ways


@dataclass
class IRBStats:
    """Write-side IRB event counts (the probe side counts in ``SimStats``)."""

    writes: int = 0
    write_drops: int = 0
    defended: int = 0  # CTR policy kept the incumbent entry


class IRB:
    """The reuse buffer proper: storage, lookup, insertion, invalidation."""

    def __init__(self, config: Optional[IRBConfig] = None):
        self.config = config if config is not None else IRBConfig()
        self._sets: List[List[IRBEntry]] = [[] for _ in range(self.config.sets)]
        self._set_mask = self.config.sets - 1
        # Pending commit-time installs (the pipelines skip ``drain`` while
        # it is empty).
        self.write_q: Deque[Tuple[int, object, object, object]] = deque()
        self.stats = IRBStats()
        self._ctr_max = (1 << self.config.ctr_bits) - 1
        # Register versions for the name-based reuse test.
        self.reg_versions = [0] * NUM_REGS

    # ------------------------------------------------------------------

    def _set_for(self, pc: int) -> List[IRBEntry]:
        return self._sets[(pc >> 2) & self._set_mask]

    def lookup(self, pc: int) -> Optional[IRBEntry]:
        """PC probe; returns the entry (refreshing set-LRU) or ``None``."""
        entries = self._sets[(pc >> 2) & self._set_mask]
        for position, entry in enumerate(entries):
            if entry.pc == pc:
                if position:
                    entries.insert(0, entries.pop(position))
                return entry
        return None

    def touch(self, entry: IRBEntry) -> None:
        """Record a successful reuse (bumps the CTR field)."""
        if entry.ctr < self._ctr_max:
            entry.ctr += 1

    # ------------------------------------------------------------------
    # Commit-side interface
    # ------------------------------------------------------------------

    def enqueue_write(self, pc: int, op1: object, op2: object, result: object) -> None:
        """Queue an install; drops the oldest pending write on overflow."""
        if len(self.write_q) >= self.config.write_queue_depth:
            self.write_q.popleft()
            self.stats.write_drops += 1
        self.write_q.append((pc, op1, op2, result))

    def drain(self, ports: PortArbiter, cycle: int) -> int:
        """Perform queued installs through available write ports."""
        done = 0
        while self.write_q and ports.try_write(cycle):
            pc, op1, op2, result = self.write_q.popleft()
            self._install(pc, op1, op2, result)
            done += 1
        return done

    def note_reg_write(self, reg: int) -> None:
        """Commit-time register write (invalidates name-based entries)."""
        self.reg_versions[reg] += 1

    def _install(self, pc: int, op1: object, op2: object, result: object) -> None:
        entries = self._set_for(pc)
        for position, entry in enumerate(entries):
            if entry.pc == pc:
                # Refresh in place (same static instruction, new operands).
                entry.op1 = op1
                entry.op2 = op2
                entry.result = result
                entries.insert(0, entries.pop(position))
                self.stats.writes += 1
                return
        if len(entries) >= self.config.ways:
            victim = entries[-1]
            if self.config.replacement == "ctr" and victim.ctr > 0:
                victim.ctr -= 1
                self.stats.defended += 1
                return  # incumbent defends its slot; the write is dropped
            entries.pop()
        entries.insert(0, IRBEntry(pc=pc, op1=op1, op2=op2, result=result))
        self.stats.writes += 1

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def invalidate(self, pc: int) -> bool:
        """Drop the entry for ``pc`` (used after a checker mismatch)."""
        entries = self._set_for(pc)
        for position, entry in enumerate(entries):
            if entry.pc == pc:
                entries.pop(position)
                return True
        return False

    def corrupt(self, pc: int, mutator: Callable[[object], object]) -> bool:
        """Fault-injection hook: perturb the stored result for ``pc``.

        If ``pc`` is negative, corrupts the most recently used entry of
        set 0 (an arbitrary cell, for random strikes).  Returns False when
        the targeted cell holds no entry (a latent fault).
        """
        if pc < 0:
            for entries in self._sets:
                if entries:
                    entries[0].result = mutator(entries[0].result)
                    return True
            return False
        entries = self._set_for(pc)
        for entry in entries:
            if entry.pc == pc:
                entry.result = mutator(entry.result)
                return True
        return False

    @property
    def occupancy(self) -> int:
        """Number of valid entries currently stored."""
        return sum(len(entries) for entries in self._sets)

    def flush(self) -> None:
        """Invalidate everything (keeps statistics and the write queue)."""
        self._sets = [[] for _ in range(self.config.sets)]


class IRBFrontEnd:
    """The IRB's pipeline-facing protocol, mixed into an ``OOOPipeline``.

    One mechanism serves both reuse models (Sections 3.2-3.3):

    * the pipelined PC probe starts in parallel with fetch, so by
      dispatch it is ``lookup_latency - frontend_latency`` cycles from
      done; its read port is charged at dispatch, because the sustained
      probe rate is the effective dispatch rate (fetch groups are bursty
      and would overstate contention);
    * the reuse test runs at operand capture, against the probing entry's
      operands (:meth:`_operands`);
    * installs are queued at commit and drained through the write ports.

    A model supplies only what differs: which of its RUU entries probes
    (:attr:`PROBE_ENTRY`), what a hit does (:meth:`_reuse_complete`) and,
    for DIE-IRB's name-based variant, the operand names it captures at
    dispatch (``DynInst.name_ops``).  Call
    :meth:`_attach_irb` from ``__init__``; list this class before the
    pipeline base so its hooks wrap the base's.
    """

    #: Index, in ``_hook_make_entries``' list, of the entry that probes.
    PROBE_ENTRY = 0

    def _attach_irb(self, irb_config: Optional[IRBConfig]) -> None:
        irb = self.irb = IRB(irb_config)
        self.ports = PortArbiter(
            irb.config.read_ports, irb.config.write_ports, irb.config.rw_ports
        )
        # How far past dispatch the pipelined lookup lands.
        self._lookup_residual = max(
            0, irb.config.lookup_latency - self.config.frontend_latency
        )

    # ------------------------------------------------------------------
    # Fetch side: pipelined PC probe
    # ------------------------------------------------------------------

    def _hook_make_entries(self, inst: TraceInst, stream: int) -> List[DynInst]:
        entries = super()._hook_make_entries(inst, stream)
        prober = entries[self.PROBE_ENTRY]
        if prober.dec.reusable:
            entry = self._probe_pc(inst.pc, inst.opcode)
            if entry is not None:
                prober.irb_entry = entry
                prober.irb_ready_cycle = self.cycle + self._lookup_residual
        return entries

    def _hook_dispatch_blocked(self, inst: TraceInst) -> None:
        # A rejected dispatch attempt still probes (port accounting and
        # statistics move per attempt), as the discarded construction did.
        if OP_META[inst.opcode].reusable:
            self._probe_pc(inst.pc, inst.opcode)

    def _probe_pc(self, pc: int, opcode: object) -> Optional[IRBEntry]:
        """One probe's accounting (stats, ports, lookup, telemetry)."""
        stats = self.stats
        stats.irb_lookups += 1
        tracer = self.tracer
        tracing = tracer is not NULL_TRACER
        if tracing:
            tracer.emit_irb(IRB_LOOKUP, self.cycle, pc, opcode)
        if not self.ports.try_read(self.cycle):
            # All read ports busy this cycle: the probe is abandoned and
            # the instruction executes on the FUs (counted, rare).
            stats.irb_port_starved += 1
            if tracing:
                tracer.emit_irb(IRB_PORT_STARVED, self.cycle, pc)
            return None
        entry = self.irb.lookup(pc)
        if entry is not None:
            stats.irb_pc_hits += 1
            if tracing:
                tracer.emit_irb(IRB_PC_HIT, self.cycle, pc, opcode)
        return entry

    # ------------------------------------------------------------------
    # Operand capture: the reuse test
    # ------------------------------------------------------------------

    def _hook_on_ready(self, inst: DynInst, cycle: int) -> None:
        entry = inst.irb_entry
        if entry is not None and not inst.reuse_hit:
            if cycle < inst.irb_ready_cycle:
                # Operands beat the pipelined lookup; retest when it lands.
                self._schedule(inst.irb_ready_cycle, "reready", inst)
                return
            if entry.matches(*self._operands(inst)):
                inst.reuse_hit = True
                self.irb.touch(entry)
                self.stats.irb_reuse_hits += 1
                tracer = self.tracer
                if tracer is not NULL_TRACER:
                    trace = inst.trace
                    tracer.emit_irb(IRB_REUSE_HIT, cycle, trace.pc, trace.opcode)
        if inst.reuse_hit:
            self._reuse_complete(inst, entry, cycle)
        else:
            super()._hook_on_ready(inst, cycle)

    def _operands(self, inst: DynInst) -> Tuple[object, object]:
        """What the IRB stores and compares for ``inst``.

        Its source values, or under ``name_based`` (DIE-IRB only) the
        (register, version) names the model captured at dispatch.
        """
        if self.irb.config.name_based:
            return inst.name_ops
        trace = inst.trace
        return trace.src1_val, trace.src2_val

    def _reuse_complete(self, inst: DynInst, entry: IRBEntry, cycle: int) -> None:
        """Carry a reuse hit to completion (the model's own policy)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Commit side: installs through the write ports
    # ------------------------------------------------------------------

    def _hook_post_commit(self, insts: List[DynInst]) -> None:
        tracer = self.tracer
        for inst in insts:
            if inst.stream or not inst.dec.reusable:
                continue
            # The probing entry carries the hit (DIE: the duplicate).
            prober = inst.pair if self.PROBE_ENTRY else inst
            if prober.reuse_hit:
                continue
            trace = inst.trace
            # What the IRB stores: address for mem ops, outcome otherwise.
            result = trace.mem_addr if inst.dec.mem else trace.result
            self.irb.enqueue_write(trace.pc, *self._operands(inst), result)
            if tracer is not NULL_TRACER:
                tracer.emit_irb(IRB_WRITE, self.cycle, trace.pc, trace.opcode)

    def _hook_tick(self) -> None:
        irb = self.irb
        if irb.write_q:
            irb.drain(self.ports, self.cycle)

    def run(self, max_cycles: Optional[int] = None) -> SimStats:
        stats = super().run(max_cycles)
        stats.irb_writes = self.irb.stats.writes
        stats.irb_write_drops = self.irb.stats.write_drops
        return stats

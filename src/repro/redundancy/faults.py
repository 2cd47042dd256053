"""Transient-fault injection for the redundancy experiments (Section 3.4).

The paper analyses DIE-IRB's coverage case by case; this module makes each
case executable.  A :class:`FaultInjector` carries a plan of
:class:`Fault` descriptors and perturbs pipeline state at well-defined
logical points:

* ``exec_primary`` / ``exec_dup`` — a strike in a functional unit while it
  computed one stream's copy of instruction ``seq``.
* ``forward_single`` — a strike on one stream's copy of a forwarded value:
  the affected instruction's output is wrong in that stream only.
* ``forward_both`` — a strike on the *shared* forwarding path of DIE-IRB
  before the fan-out to both streams: both copies compute the same wrong
  output.  The pair check cannot see it — this is the escape the paper's
  Figure 6(c) analysis concedes, with probability comparable to base DIE's
  own escapes.
* ``irb_entry`` — a strike on an IRB cell after insertion: the stored
  result is corrupted.  It is *activated* only if some duplicate later
  passes the reuse test against the entry; the primary's FU execution then
  disagrees and the checker catches it.

Faults inject exactly once (re-execution after a rewind sees clean
hardware, like a real transient).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from ..core import DUPLICATE, PRIMARY, DynInst, OOOPipeline
from ..telemetry.events import (
    FAULT_INJECTED,
    FAULT_LATENT,
    NULL_TRACER,
    FaultEvent,
    Tracer,
)

EXEC_PRIMARY = "exec_primary"
EXEC_DUP = "exec_dup"
FORWARD_SINGLE = "forward_single"
FORWARD_BOTH = "forward_both"
IRB_ENTRY = "irb_entry"

FAULT_KINDS = (EXEC_PRIMARY, EXEC_DUP, FORWARD_SINGLE, FORWARD_BOTH, IRB_ENTRY)


def corrupt_value(value: object) -> object:
    """Deterministically perturb an output value (a single-bit-flip stand-in)."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ (1 << 7)
    if isinstance(value, float):
        return -value if value != 0.0 else 1.0
    return value


@dataclass
class Fault:
    """One planned transient fault.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        seq: dynamic instruction the fault strikes (ignored for
            ``irb_entry``).
        cycle: for ``irb_entry``, the cycle at which the strike occurs.
        pc: for ``irb_entry``, the static instruction whose entry is hit.
    """

    kind: str
    seq: int = -1
    cycle: int = 0
    pc: int = -1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")


@dataclass
class InjectionLog:
    """What happened to each planned fault."""

    injected: int = 0
    latent: int = 0  # IRB strikes whose cell held no (or a dead) entry


class FaultInjector:
    """Installs into a pipeline via ``pipeline.fault_injector = injector``."""

    def __init__(self, faults: List[Fault]):
        self.faults = list(faults)
        self.log = InjectionLog()
        #: Telemetry sink (shared with the host pipeline by the runner).
        self.tracer: Tracer = NULL_TRACER
        self._by_seq: Dict[int, List[int]] = {}
        self._irb_pending: List[int] = []
        self._consumed: Set[int] = set()
        self._counted: Set[int] = set()
        self._hit_streams: Dict[int, Set[int]] = {}
        for index, fault in enumerate(self.faults):
            if fault.kind == IRB_ENTRY:
                self._irb_pending.append(index)
            else:
                self._by_seq.setdefault(fault.seq, []).append(index)

    # -- pipeline callbacks -------------------------------------------

    def on_complete(self, inst: DynInst, cycle: int = 0) -> None:
        """Perturb ``inst``'s output if an un-consumed fault targets it."""
        indices = self._by_seq.get(inst.seq)
        if not indices:
            return
        for index in indices:
            if index in self._consumed:
                continue
            kind = self.faults[index].kind
            if kind == EXEC_PRIMARY and inst.stream == PRIMARY:
                self._corrupt(inst, index, cycle)
                self._consumed.add(index)
            elif kind in (EXEC_DUP, FORWARD_SINGLE) and inst.stream == DUPLICATE:
                self._corrupt(inst, index, cycle)
                self._consumed.add(index)
            elif kind == FORWARD_BOTH:
                # The shared forwarding bus delivered the same bad value to
                # both streams: corrupt each copy identically, consume once
                # both copies have been hit.
                self._corrupt(inst, index, cycle)
                hit = self._hit_streams.setdefault(index, set())
                hit.add(inst.stream)
                if hit == {PRIMARY, DUPLICATE}:
                    self._consumed.add(index)

    def on_tick(self, pipeline: OOOPipeline) -> None:
        """Apply due IRB-cell strikes (DIE-IRB pipelines expose ``irb``)."""
        if not self._irb_pending:
            return
        irb = getattr(pipeline, "irb", None)
        if irb is None:
            return
        still_pending = []
        for index in self._irb_pending:
            fault = self.faults[index]
            if fault.cycle > pipeline.cycle:
                still_pending.append(index)
                continue
            if irb.corrupt(fault.pc, corrupt_value):
                self.log.injected += 1
                outcome = FAULT_INJECTED
            else:
                self.log.latent += 1
                outcome = FAULT_LATENT
            tracer = self.tracer
            if tracer is not NULL_TRACER:
                tracer.emit(
                    FaultEvent(pipeline.cycle, fault.seq, fault.kind, outcome)
                )
            self._consumed.add(index)
        self._irb_pending = still_pending

    # -- internals ------------------------------------------------------

    def _corrupt(self, inst: DynInst, index: int, cycle: int = 0) -> None:
        if inst.trace.is_mem:
            old = inst.mem_addr
            new = corrupt_value(old)
            inst.mem_addr = new
        else:
            old = inst.result
            new = corrupt_value(old)
            inst.result = new
        # corrupt_value falls through unchanged for operand types it does
        # not support; such a strike flipped nothing and must be counted
        # latent, not injected (it can never be detected or recovered).
        changed = new != old
        if index not in self._counted:
            self._counted.add(index)
            if changed:
                self.log.injected += 1
            else:
                self.log.latent += 1
            tracer = self.tracer
            if tracer is not NULL_TRACER:
                tracer.emit(
                    FaultEvent(
                        cycle,
                        inst.seq,
                        self.faults[index].kind,
                        FAULT_INJECTED if changed else FAULT_LATENT,
                    )
                )

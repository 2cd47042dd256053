"""Value prediction for the duplicate stream (DIE-VP).

Section 3.1 recounts how instruction-reuse research "evolved into the
study of value prediction" [19, 18].  This module follows that road for
comparison's sake: instead of a reuse buffer, a stride value predictor
guesses each duplicate's outcome.  The guess is *verified against the
primary's FU execution* when it completes — the same
no-extra-protection argument the paper makes for the IRB — and a wrong
guess simply sends the duplicate to the ALUs like a reuse miss.

The interesting contrast with the IRB:

* VP predicts *new* values (strides, induction variables) the IRB can
  never reuse, so its hit rate can be higher;
* but a VP "hit" is only known at primary completion, whereas an IRB hit
  is confirmed by the reuse test as soon as operands arrive — and VP's
  confidence/stride hardware sits exactly where the paper wants less
  complexity.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import MachineConfig
from ..core.dyninst import PRIMARY, DynInst
from ..isa import TraceInst
from ..redundancy import DIEPipeline
from ..telemetry.events import (
    IRB_LOOKUP,
    IRB_PC_HIT,
    IRB_REUSE_HIT,
    NULL_TRACER,
)
from ..workloads import Trace


class _Entry:
    __slots__ = ("last", "stride", "confidence")

    def __init__(self, value: object):
        self.last = value
        self.stride = 0
        self.confidence = 0


class StrideValuePredictor:
    """Classic last-value + stride predictor with confidence counters."""

    #: Table entries (direct-mapped by PC), as many as the paper's IRB.
    ENTRIES = 1024
    #: Saturating confidence counter ceiling (2 bits).
    MAX_CONFIDENCE = 3
    #: Minimum confidence to emit a prediction.
    THRESHOLD = 2

    def __init__(self) -> None:
        self._table: Dict[int, _Entry] = {}
        self.lookups = 0
        self.predictions = 0

    def _index(self, pc: int) -> int:
        return (pc >> 2) & (self.ENTRIES - 1)

    def predict(self, pc: int, ahead: int = 1) -> Optional[object]:
        """A confident prediction for ``pc``'s next outcome, or ``None``.

        ``ahead`` projects the stride past instances still in flight: the
        table holds the last *committed* value, so the k-th uncommitted
        instance of ``pc`` needs ``last + k*stride`` (the standard
        in-flight correction for stride predictors).
        """
        self.lookups += 1
        entry = self._table.get(self._index(pc))
        if entry is None or entry.confidence < self.THRESHOLD:
            return None
        self.predictions += 1
        if isinstance(entry.last, int) and isinstance(entry.stride, int):
            return entry.last + entry.stride * ahead
        return entry.last

    def update(self, pc: int, actual: object) -> None:
        """Train on the committed outcome of ``pc``."""
        index = self._index(pc)
        entry = self._table.get(index)
        if entry is None:
            self._table[index] = _Entry(actual)
            return
        if isinstance(actual, int) and isinstance(entry.last, int):
            stride = actual - entry.last
            if stride == entry.stride:
                if entry.confidence < self.MAX_CONFIDENCE:
                    entry.confidence += 1
            else:
                entry.stride = stride
                entry.confidence = 0
        else:
            if actual == entry.last:
                if entry.confidence < self.MAX_CONFIDENCE:
                    entry.confidence += 1
            else:
                entry.confidence = 0
        entry.last = actual


class DIEVPPipeline(DIEPipeline):
    """DIE with value-predicted duplicates, verified against the primary.

    Statistics map onto the IRB fields for comparability: ``irb_lookups``
    = duplicate predictions attempted, ``irb_pc_hits`` = confident
    predictions issued, ``irb_reuse_hits`` = predictions verified correct
    (duplicate bypassed the ALUs).  Each count emits the matching
    ``IRBEvent``, so traces and sampled runs see the same funnel.
    """

    name = "DIE-VP"

    #: As in DIE-IRB: primary results wake both streams, so a failed
    #: prediction can issue as soon as verification fails.
    WAKE_FROM_PRIMARY = True

    def __init__(self, trace: Trace, config: Optional[MachineConfig] = None):
        super().__init__(trace, config)
        self.vp = StrideValuePredictor()
        # duplicates holding a prediction, awaiting primary completion
        self._speculating: Dict[int, object] = {}
        # uncommitted instances per PC, for in-flight stride projection
        self._inflight: Dict[int, int] = {}

    # -- prediction at dispatch ------------------------------------------

    def _hook_make_entries(self, inst: TraceInst, stream: int) -> List[DynInst]:
        entries = super()._hook_make_entries(inst, stream)
        if entries[0].dec.reusable:
            stats = self.stats
            tracer = self.tracer
            tracing = tracer is not NULL_TRACER
            stats.irb_lookups += 1
            if tracing:
                tracer.emit_irb(IRB_LOOKUP, self.cycle, inst.pc, inst.opcode)
            ahead = self._inflight.get(inst.pc, 0) + 1
            self._inflight[inst.pc] = ahead
            predicted = self.vp.predict(inst.pc, ahead=ahead)
            if predicted is not None:
                stats.irb_pc_hits += 1
                if tracing:
                    tracer.emit_irb(IRB_PC_HIT, self.cycle, inst.pc, inst.opcode)
                duplicate = entries[1]
                duplicate.issued = True  # held out of the scheduler
                self._speculating[duplicate.uid] = predicted
        return entries

    def _hook_dispatch_blocked(self, inst: TraceInst) -> None:
        # The VP probe mutates predictor counters and in-flight state per
        # dispatch *attempt*; build-and-discard reproduces those effects
        # verbatim (this model is not on the benchmark's hot path).
        self._hook_make_entries(inst, PRIMARY)

    # -- verification at primary completion ------------------------------

    def _complete(self, inst: DynInst, cycle: int) -> None:
        super()._complete(inst, cycle)
        if inst.stream != PRIMARY:
            return
        duplicate = inst.pair
        if duplicate is None:
            return
        predicted = self._speculating.pop(duplicate.uid, None)
        if predicted is None or duplicate.squashed or duplicate.complete:
            return
        # Verify against what the primary actually produced (a faulted
        # primary must fail verification, sending the duplicate to the
        # ALUs and the divergence to the commit checker).
        if predicted == inst.output():
            # Verified: the duplicate never touches an ALU.
            duplicate.reuse_hit = True
            if duplicate.dec.mem:
                duplicate.mem_addr = predicted
            else:
                duplicate.result = predicted
            self.stats.irb_reuse_hits += 1
            tracer = self.tracer
            if tracer is not NULL_TRACER:
                trace = duplicate.trace
                tracer.emit_irb(IRB_REUSE_HIT, cycle, trace.pc, trace.opcode)
            self._schedule(cycle + 1, "complete", duplicate)
        else:
            # Wrong guess: fall back to the functional units.  Deliberately
            # uncounted here — the duplicate re-enters the ALU path and is
            # accounted by the ordinary issue/complete counters.
            duplicate.issued = False  # simlint: disable=SL102
            self._hook_on_ready(duplicate, cycle)

    # -- training at commit ----------------------------------------------

    def _hook_post_commit(self, insts: List[DynInst]) -> None:
        for inst in insts:
            if inst.stream != PRIMARY:
                continue
            if inst.dec.reusable:
                pc = inst.trace.pc
                remaining = self._inflight.get(pc, 1) - 1
                if remaining:
                    self._inflight[pc] = remaining
                else:
                    self._inflight.pop(pc, None)
                # The pair check has already passed: output() is trusted.
                self.vp.update(pc, inst.output())

    def squash_and_refetch(self, seq: int) -> None:
        self._speculating.clear()
        self._inflight.clear()
        super().squash_and_refetch(seq)

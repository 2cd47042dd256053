"""In-flight dynamic instruction state (one RUU entry)."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..isa import TraceInst
from .decoded import OP_META, DecodedOp

PRIMARY = 0
DUPLICATE = 1


class DynInst:
    """One RUU entry: a dynamic instruction plus its pipeline state.

    In SIE mode every instruction is stream ``PRIMARY``.  In DIE modes each
    trace instruction dispatches as a (PRIMARY, DUPLICATE) pair linked via
    :attr:`pair`.

    ``result`` starts as the architecturally-correct value from the trace
    and is only changed by fault injection; the commit-stage checker
    compares the *outputs* of the two streams (see :meth:`output`).
    """

    __slots__ = (
        "trace",
        "dec",
        "stream",
        "uid",
        "pair",
        "pending",
        "consumers",
        "issued",
        "complete",
        "result",
        "mem_addr",
        "in_lsq",
        "irb_entry",
        "irb_ready_cycle",
        "reuse_hit",
        "name_ops",
        "squashed",
    )

    def __init__(self, trace: TraceInst, stream: int = PRIMARY):
        self.trace = trace
        #: Decoded per-opcode facts (timings, category flags); the stage
        #: methods read these slots instead of re-deriving them per cycle.
        self.dec: DecodedOp = OP_META[trace.opcode]
        self.stream = stream
        self.uid = trace.seq * 2 + stream
        self.pair: Optional[DynInst] = None
        self.pending = 0
        self.consumers: List[DynInst] = []
        self.issued = False
        self.complete = False
        self.result: object = trace.result
        self.mem_addr: object = trace.mem_addr
        self.in_lsq = False
        # IRB state (typed loosely: the entry class lives in the reuse
        # package, which the base core must not import).
        self.irb_entry: Optional[object] = None
        self.irb_ready_cycle = 0
        self.reuse_hit = False
        # Name-based IRB mode: (register, version) pairs captured at
        # dispatch (rename time) for each source operand.
        self.name_ops: Optional[Tuple[object, object]] = None
        self.squashed = False

    @property
    def seq(self) -> int:
        return self.trace.seq

    @property
    def is_duplicate(self) -> bool:
        return self.stream == DUPLICATE

    def output(self) -> object:
        """The value the commit-stage checker compares across streams.

        For memory instructions both streams compute (only) the effective
        address; for control flow, the next PC; otherwise the result value.
        """
        if self.dec.mem:
            return self.mem_addr
        return self.result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "D" if self.is_duplicate else "P"
        state = (
            "done"
            if self.complete
            else "issued"
            if self.issued
            else f"wait({self.pending})"
        )
        return f"<DynInst {tag}{self.seq} {self.trace.opcode.name} {state}>"

"""Decoded-instruction metadata: resolve per-opcode facts once, not per cycle.

The cycle-level stage methods used to re-derive the same facts for every
dynamic instruction on every cycle it was considered: opcode-timing
dictionary probes in issue, ``pc // line_bytes`` divisions in fetch,
``is_mem``/``is_branch`` property calls (each a frozenset membership test
behind a function call) throughout.  None of those answers ever change —
they depend only on the opcode (and, for the I-cache block id, on the PC
and line size), both fixed at trace-generation time.

Two layers, both immutable after construction:

* :data:`OP_META` — one :class:`DecodedOp` per opcode, built at import
  time.  ``DynInst`` binds the right record at construction
  (``OP_META[trace.opcode]``), so the back-end stages read plain slot
  attributes instead of calling predicates.
* :class:`DecodedTrace` — per-trace arrays (I-cache block id per
  instruction, warmup memory filter, the aligned ``DecodedOp`` list for
  the fetch stage).  Built once per ``(trace, line_bytes)`` and memoized
  on the :class:`~repro.workloads.Trace` itself, so every pipeline
  instantiation — and every forked campaign worker, which inherits the
  parent's trace cache — shares one copy.
"""

from __future__ import annotations

from typing import List, Tuple

from ..isa import Opcode, OpTiming
from ..isa.latencies import ADDRESS_CALC_TIMING, TIMING_TABLE
from ..isa.opcodes import (
    is_branch,
    is_cond_branch,
    is_load,
    is_mem,
    is_reusable,
    is_store,
)
from ..workloads import Trace


class DecodedOp:
    """Immutable per-opcode facts, resolved once at import time.

    ``timing`` is the opcode's :class:`OpTiming`; ``dup_timing`` is what a
    *duplicate* stream copy pays — address calculation only for memory
    instructions, the full timing otherwise.
    """

    __slots__ = (
        "timing",
        "dup_timing",
        "mem",
        "load",
        "store",
        "branch",
        "cond_branch",
        "is_ret",
        "is_call",
        "reusable",
    )

    timing: OpTiming
    dup_timing: OpTiming
    mem: bool
    load: bool
    store: bool
    branch: bool
    cond_branch: bool
    is_ret: bool
    is_call: bool
    reusable: bool

    def __init__(self, op: Opcode) -> None:
        self.timing = TIMING_TABLE[op]
        self.mem = is_mem(op)
        self.dup_timing = ADDRESS_CALC_TIMING if self.mem else self.timing
        self.load = is_load(op)
        self.store = is_store(op)
        self.branch = is_branch(op)
        self.cond_branch = is_cond_branch(op)
        self.is_ret = op is Opcode.RET
        self.is_call = op is Opcode.CALL
        self.reusable = is_reusable(op)


def _build_op_meta() -> Tuple[DecodedOp, ...]:
    table: List[DecodedOp] = []
    for value in range(max(Opcode) + 1):
        try:
            op = Opcode(value)
        except ValueError:
            op = Opcode.NOP  # hole in the opcode numbering; never indexed
        table.append(DecodedOp(op))
    return tuple(table)


#: Indexed by opcode *value* (``OP_META[inst.opcode]`` — IntEnum indexes
#: directly).  Holes in the numbering hold NOP records and are never hit.
OP_META: Tuple[DecodedOp, ...] = _build_op_meta()


class DecodedTrace:
    """Per-trace decoded arrays, aligned with trace position (== ``seq``).

    The timing models already rely on ``inst.seq`` equalling the trace
    index (``squash_and_refetch`` rewinds ``fetch_index`` to ``seq``); the
    same invariant lets these arrays be indexed by either.
    """

    __slots__ = ("line_bytes", "ops", "blocks", "warm_mem")

    line_bytes: int
    #: ``ops[i]`` is ``OP_META[trace[i].opcode]`` (saves the enum index in
    #: the fetch loop).
    ops: List[DecodedOp]
    #: ``blocks[i]`` is ``trace[i].pc // line_bytes`` (the I-cache block).
    blocks: List[int]
    #: ``warm_mem[i]`` — functional warmup should touch ``mem_addr``
    #: (a memory instruction whose address is outside the cold ranges).
    warm_mem: List[bool]

    def __init__(self, trace: Trace, line_bytes: int) -> None:
        self.line_bytes = line_bytes
        op_meta = OP_META
        is_cold = trace.is_cold
        ops: List[DecodedOp] = []
        blocks: List[int] = []
        warm_mem: List[bool] = []
        for inst in trace.insts:
            dec = op_meta[inst.opcode]
            ops.append(dec)
            blocks.append(inst.pc // line_bytes)
            warm_mem.append(dec.mem and not is_cold(inst.mem_addr))
        self.ops = ops
        self.blocks = blocks
        self.warm_mem = warm_mem


def decode_trace(trace: Trace, line_bytes: int) -> DecodedTrace:
    """The (memoized) :class:`DecodedTrace` for ``trace`` at ``line_bytes``.

    Memoized on the trace object itself (`Trace.derived`), so all pipeline
    instantiations over one trace — including forked campaign workers —
    share a single decode pass.
    """
    return trace.derived(
        ("decoded", line_bytes), lambda t: DecodedTrace(t, line_bytes)
    )

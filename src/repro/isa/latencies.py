"""Execution latencies and pipelining behaviour per opcode.

Latencies follow the SimpleScalar ``sim-outorder`` defaults the paper's
machine inherits: single-cycle integer ALU ops, pipelined multiplies,
long-latency unpipelined divides and square roots.  Memory instruction
latency here covers only the *address calculation*; the cache access is
timed by the memory hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .opcodes import Opcode


@dataclass(frozen=True)
class OpTiming:
    """Timing contract of one opcode on its functional unit.

    Attributes:
        latency: cycles from issue to result availability.
        init_interval: cycles before the unit can accept another operation
            (1 = fully pipelined; == latency = unpipelined).
    """

    latency: int
    init_interval: int = 1

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise ValueError(f"latency must be >= 1, got {self.latency}")
        if not 1 <= self.init_interval <= self.latency:
            raise ValueError(
                f"init_interval must be in [1, latency], got {self.init_interval}"
            )


_DEFAULT = OpTiming(latency=1)

_TIMINGS = {
    Opcode.MUL: OpTiming(latency=3),
    Opcode.DIV: OpTiming(latency=20, init_interval=19),
    Opcode.FADD: OpTiming(latency=2),
    Opcode.FSUB: OpTiming(latency=2),
    Opcode.FCMP: OpTiming(latency=2),
    Opcode.FMUL: OpTiming(latency=4),
    Opcode.FDIV: OpTiming(latency=12, init_interval=12),
    Opcode.FSQRT: OpTiming(latency=24, init_interval=24),
}


#: Complete opcode -> timing table with the single-cycle default
#: materialized for every opcode.  The decoded-trace cache
#: (``core/decoded.py``) reads it once per opcode at import time.
TIMING_TABLE: Dict[Opcode, OpTiming] = {
    op: _TIMINGS.get(op, _DEFAULT) for op in Opcode
}

#: What a duplicate of a load/store pays: address calculation only,
#: a single-cycle integer ALU operation (see Section 2.1 of the paper).
ADDRESS_CALC_TIMING = TIMING_TABLE[Opcode.ADD]

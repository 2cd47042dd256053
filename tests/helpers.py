"""Shared test helpers: hand-built programs and micro-traces.

Directed pipeline tests need tiny, fully-controlled instruction streams.
``assemble`` builds a :class:`Program` from a compact op list and
``straightline`` runs it functionally into a trace, so the timing models
under test consume exactly the instructions the test wrote.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.isa import Opcode, StaticInst
from repro.workloads import Program, Trace
from repro.workloads.executor import FunctionalExecutor
from repro.workloads.program import DataArray


def assemble(ops: Sequence[Tuple], arrays: Optional[List[DataArray]] = None) -> Program:
    """Build a Program from ``(opcode, dst, src1, src2, imm[, target])`` rows.

    Fields may be ``None``; a trailing JUMP back to pc 0 is appended so the
    image is a closed loop (the executor never falls off the end).
    """
    insts = []
    for index, row in enumerate(ops):
        opcode, dst, src1, src2, imm = row[:5]
        target = row[5] if len(row) > 5 else None
        insts.append(
            StaticInst(
                pc=index * 4,
                opcode=opcode,
                dst=dst,
                src1=src1,
                src2=src2,
                imm=imm,
                target=target,
            )
        )
    insts.append(
        StaticInst(pc=len(ops) * 4, opcode=Opcode.JUMP, target=0)
    )
    return Program(name="test", insts=insts, arrays=arrays or [])


def straightline(ops: Sequence[Tuple], count: Optional[int] = None) -> Trace:
    """Assemble ``ops`` and execute ``count`` instructions (default: one pass)."""
    program = assemble(ops)
    executor = FunctionalExecutor(program)
    return executor.run(count if count is not None else len(ops))


def addi(dst: int, src: int, imm: int) -> Tuple:
    """Shorthand for an ADDI row."""
    return (Opcode.ADDI, dst, src, None, imm)


def nop_row() -> Tuple:
    return (Opcode.NOP, None, None, None, 0)


def call_with_timeout(fn: Callable[[], Any], seconds: float) -> Any:
    """Call ``fn`` on a daemon thread; fail (not hang) if it overruns.

    Re-raises whatever ``fn`` raised, so ``pytest.raises`` works around
    it.  ``pytest-timeout`` is not a dependency, and a scheduler that
    loses a worker can block forever.
    """
    outcome: dict = {}

    def target() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as error:  # re-raised on the caller's thread
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"call did not return within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")

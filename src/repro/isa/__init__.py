"""Instruction-set definitions shared by every model in the reproduction."""

from .instruction import StaticInst, TraceInst, make_trace_inst
from .latencies import OpTiming
from .opcodes import (
    FUClass,
    Opcode,
    fu_class,
    is_branch,
    is_cond_branch,
    is_fp,
    is_load,
    is_mem,
    is_reusable,
    is_store,
    is_uncond_branch,
)
from .registers import (
    FP_BASE,
    LINK_REG,
    NUM_FP_REGS,
    NUM_INT_REGS,
    NUM_REGS,
    ZERO_REG,
    fp_reg,
    int_reg,
    is_fp_reg,
    reg_name,
)

__all__ = [
    "FUClass",
    "Opcode",
    "OpTiming",
    "StaticInst",
    "TraceInst",
    "fu_class",
    "is_branch",
    "is_cond_branch",
    "is_fp",
    "is_load",
    "is_mem",
    "is_reusable",
    "is_store",
    "is_uncond_branch",
    "make_trace_inst",
    "FP_BASE",
    "LINK_REG",
    "NUM_FP_REGS",
    "NUM_INT_REGS",
    "NUM_REGS",
    "ZERO_REG",
    "fp_reg",
    "int_reg",
    "is_fp_reg",
    "reg_name",
]

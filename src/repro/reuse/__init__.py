"""Instruction reuse: the IRB and the pipelines that exploit it."""

from .die_irb import DIEIRBPipeline
from .die_irb_fwd import DIEIRBFwdPipeline
from .entry import IRBEntry
from .irb import IRB, IRBConfig, IRBStats
from .ports import PortArbiter
from .sie_irb import SIEIRBPipeline
from .valuepred import DIEVPPipeline, StrideValuePredictor

__all__ = [
    "DIEIRBFwdPipeline",
    "DIEIRBPipeline",
    "IRB",
    "IRBConfig",
    "IRBEntry",
    "IRBStats",
    "PortArbiter",
    "SIEIRBPipeline",
    "DIEVPPipeline",
    "StrideValuePredictor",
]

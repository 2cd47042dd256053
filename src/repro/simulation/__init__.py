"""Simulation driver layer: runners, metrics, reporting."""

from .metrics import (
    arithmetic_mean,
    geometric_mean,
    ipc_loss_pct,
    recovered_fraction,
)
from .reporting import format_table
from .runner import MODELS, RunResult, get_trace, run_workload, simulate

__all__ = [
    "MODELS",
    "RunResult",
    "arithmetic_mean",
    "format_table",
    "geometric_mean",
    "get_trace",
    "ipc_loss_pct",
    "recovered_fraction",
    "run_workload",
    "simulate",
]

"""Sampled-vs-full error measurement.

The acceptance question for sampled simulation is always the same: *how
wrong is the extrapolated estimate, and how much work did it save?*
This module answers it per (workload, model) pair on the two headline
metrics of the reproduction — IPC and duplicate issue bandwidth (the
paper's subject: ALU slots consumed by duplicate instructions).

Both the full and the sampled run are resolved through the campaign
layer when one is ambient (``campaign_context``), so repeated error
sweeps are store hits, not re-simulations.  The campaign import is
deliberately lazy: ``repro.campaign`` imports this package (jobs carry a
:class:`~.plan.SamplingPlan`), so a module-level import here would be a
cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core import MachineConfig, SimStats
from ..reuse import IRBConfig
from ..simulation.runner import get_trace, takes_irb_config
from .plan import SamplingPlan
from .regions import select_regions

#: Relative errors fall back to absolute differences when the full-run
#: reference is smaller than this (e.g. duplicate bandwidth on SIE,
#: which issues no duplicates at all).
_REFERENCE_FLOOR = 1e-9


def duplicate_bandwidth(stats: SimStats) -> float:
    """Issue slots per cycle consumed beyond architected commits.

    For the DIE-family models this is dominated by duplicate-stream
    issues — the bandwidth the paper's IRB exists to win back; for SIE it
    reduces to squashed speculative work (near zero).
    """
    if not stats.cycles:
        return 0.0
    return (stats.issued - stats.committed) / stats.cycles


def relative_error(sampled: float, full: float) -> float:
    """``|sampled - full| / |full|``, absolute when the reference is ~0."""
    if abs(full) < _REFERENCE_FLOOR:
        return abs(sampled - full)
    return abs(sampled - full) / abs(full)


@dataclass(frozen=True)
class SampleError:
    """One (workload, model) sampled-vs-full comparison."""

    workload: str
    model: str
    n_insts: int
    full_ipc: float
    sampled_ipc: float
    ipc_error: float
    full_dup_bw: float
    sampled_dup_bw: float
    dup_bw_error: float
    coverage: float  #: fraction of dynamic instructions cycle-simulated
    regions: int

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "model": self.model,
            "n_insts": self.n_insts,
            "full_ipc": self.full_ipc,
            "sampled_ipc": self.sampled_ipc,
            "ipc_error": self.ipc_error,
            "full_dup_bw": self.full_dup_bw,
            "sampled_dup_bw": self.sampled_dup_bw,
            "dup_bw_error": self.dup_bw_error,
            "coverage": self.coverage,
            "regions": self.regions,
        }


def measure_error(
    workload: str,
    model: str,
    n_insts: int,
    plan: SamplingPlan,
    seed: int = 1,
    config: Optional[MachineConfig] = None,
    irb_config: Optional[IRBConfig] = None,
) -> SampleError:
    """Run (or fetch) the full and sampled simulations and compare them."""
    from ..campaign.jobs import Job
    from ..campaign.scheduler import run_campaign

    full_job = Job(
        workload=workload,
        n_insts=n_insts,
        seed=seed,
        model=model,
        config=config,
        irb_config=irb_config,
    )
    sampled_job = Job(
        workload=workload,
        n_insts=n_insts,
        seed=seed,
        model=model,
        config=config,
        irb_config=irb_config,
        sampling=plan,
    )
    outcome = run_campaign([full_job, sampled_job])
    full_stats = outcome.results[0].stats
    sampled_stats = outcome.results[1].stats

    trace = get_trace(workload, n_insts, seed)
    selection = select_regions(trace, plan)
    full_bw = duplicate_bandwidth(full_stats)
    sampled_bw = duplicate_bandwidth(sampled_stats)
    return SampleError(
        workload=workload,
        model=model,
        n_insts=n_insts,
        full_ipc=full_stats.ipc,
        sampled_ipc=sampled_stats.ipc,
        ipc_error=relative_error(sampled_stats.ipc, full_stats.ipc),
        full_dup_bw=full_bw,
        sampled_dup_bw=sampled_bw,
        dup_bw_error=relative_error(sampled_bw, full_bw),
        coverage=selection.coverage,
        regions=len(selection.regions),
    )


def measure_errors(
    workloads: Sequence[str],
    models: Sequence[str],
    n_insts: int,
    plan: SamplingPlan,
    seed: int = 1,
    config: Optional[MachineConfig] = None,
    irb_config: Optional[IRBConfig] = None,
) -> List[SampleError]:
    """The full (workload x model) error matrix, in given order."""
    return [
        measure_error(
            workload,
            model,
            n_insts,
            plan,
            seed=seed,
            config=config,
            irb_config=irb_config if takes_irb_config(model) else None,
        )
        for workload in workloads
        for model in models
    ]


def geomean_ipc_error(errors: Sequence[SampleError]) -> float:
    """Geometric mean of ``1 + ipc_error`` minus 1 (stable around zero)."""
    if not errors:
        return 0.0
    product = 1.0
    for error in errors:
        product *= 1.0 + error.ipc_error
    return product ** (1.0 / len(errors)) - 1.0

"""repro — reproduction of "A Complexity-Effective Approach to ALU
Bandwidth Enhancement for Instruction-Level Temporal Redundancy"
(Parashar, Gurumurthi & Sivasubramaniam, ISCA 2004).

Quick start::

    from repro import run_workload

    sie = run_workload("gzip", model="sie")
    die = run_workload("gzip", model="die")
    die_irb = run_workload("gzip", model="die-irb")
    print(sie.ipc, die.ipc, die_irb.ipc)

Public surface:

* :mod:`repro.workloads` — synthetic SPEC2000-like trace generation.
* :mod:`repro.core` — the out-of-order core (SIE) and its configuration.
* :mod:`repro.redundancy` — DIE, the commit checker, fault injection.
* :mod:`repro.reuse` — the IRB, DIE-IRB and the SIE-IRB baseline.
* :mod:`repro.simulation` — runners, metrics, reporting.
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from .core import MachineConfig, OOOPipeline, SimStats
from .redundancy import DIEPipeline, Fault, FaultInjector
from .reuse import DIEIRBPipeline, IRB, IRBConfig, SIEIRBPipeline
from .simulation import (
    MODELS,
    RunResult,
    get_trace,
    ipc_loss_pct,
    recovered_fraction,
    run_workload,
    simulate,
)
from .workloads import APP_NAMES, Trace, load_workload

__version__ = "1.0.0"

__all__ = [
    "APP_NAMES",
    "DIEIRBPipeline",
    "DIEPipeline",
    "Fault",
    "FaultInjector",
    "IRB",
    "IRBConfig",
    "MODELS",
    "MachineConfig",
    "OOOPipeline",
    "RunResult",
    "SIEIRBPipeline",
    "SimStats",
    "Trace",
    "get_trace",
    "ipc_loss_pct",
    "load_workload",
    "recovered_fraction",
    "run_workload",
    "simulate",
    "__version__",
]

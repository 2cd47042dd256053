"""Differential run harness: one trace through every timing model.

The harness drives pipelines itself (built by
:func:`repro.simulation.runner.make_pipeline`, as ``simulate`` does) so
it can attach a :class:`CommitAuditor` tracer, which the public runner
deliberately does not expose: it records per-``(seq, stream)``
commit counts and the primary-stream commit order, the raw
material for the commit-exactly-once and oracle-match invariants.

Everything here is read-only with respect to the models: the harness
never reaches into pipeline state, it only observes stats and events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import MachineConfig, SimStats
from ..core.pipeline import DeadlockError
from ..redundancy import FaultInjector
from ..reuse import IRBConfig
from ..simulation.runner import make_pipeline
from ..telemetry.events import STAGE_COMMIT, InstEvent, Tracer
from ..telemetry.record import TeeTracer
from ..workloads import Trace

#: Models whose commit path carries a redundant stream (never faster
#: than the redundancy-free SIE baseline on the same trace).
REDUNDANT_MODELS: Tuple[str, ...] = (
    "die",
    "die-irb",
    "die-irb-fwd",
    "die-vp",
    "die-cluster-split",
    "die-cluster-repl",
    "srt",
)

#: Models whose commit checker checks every architected instruction
#: once (the DIE family per pair, SRT per trailing instruction).
PAIR_CHECKED_MODELS: Tuple[str, ...] = (
    "die",
    "die-irb",
    "die-irb-fwd",
    "die-vp",
    "die-cluster-split",
    "die-cluster-repl",
    "srt",
)


class CommitAuditor(Tracer):
    """Counts lifecycle events the commit invariants reason about.

    Observation only — attaching it never changes statistics (the
    telemetry subsystem's pinned contract).
    """

    def __init__(self) -> None:
        self.commits: Dict[Tuple[int, int], int] = {}
        #: Primary-stream commits in retirement order, as ``(seq, pc)``.
        self.primary_order: List[Tuple[int, int]] = []

    def emit(self, event: object) -> None:
        if not isinstance(event, InstEvent) or event.kind != STAGE_COMMIT:
            return
        key = (event.seq, event.stream)
        self.commits[key] = self.commits.get(key, 0) + 1
        if event.stream == 0:
            self.primary_order.append((event.seq, event.pc))


@dataclass
class ModelRun:
    """One model's outcome on one trace."""

    model: str
    stats: Optional[SimStats] = None
    auditor: Optional[CommitAuditor] = None
    error: str = ""
    #: STREAMS declared by the pipeline class (1 for SIE, 2 for DIE/SRT).
    streams: int = 1


@dataclass
class CaseResult:
    """The full differential picture for one fuzz case."""

    trace: Trace
    runs: Dict[str, ModelRun] = field(default_factory=dict)


def run_model(
    trace: Trace,
    model: str,
    config: Optional[MachineConfig] = None,
    irb_config: Optional[IRBConfig] = None,
    audit: bool = True,
    tracer: Optional[Tracer] = None,
    fault_injector: Optional[FaultInjector] = None,
) -> ModelRun:
    """Run one timing model over ``trace``, catching deadlocks as data."""
    pipeline = make_pipeline(model, trace, config, irb_config)
    auditor = CommitAuditor() if audit else None
    sinks = [sink for sink in (auditor, tracer) if sink is not None]
    if len(sinks) == 1:
        pipeline.tracer = sinks[0]
    elif sinks:
        pipeline.tracer = TeeTracer(*sinks)
    if fault_injector is not None:
        pipeline.fault_injector = fault_injector
    run = ModelRun(model=model, auditor=auditor, streams=pipeline.STREAMS)
    pipeline.warm_up()
    try:
        run.stats = pipeline.run()
    except DeadlockError as error:
        run.error = str(error)
    return run


def run_case(
    trace: Trace,
    models: Sequence[str],
    config: Optional[MachineConfig] = None,
    fault_injectors: Optional[Dict[str, FaultInjector]] = None,
) -> CaseResult:
    """Run ``trace`` through every requested model with auditing on.

    ``fault_injectors`` optionally attaches a fault plan to named models
    — the fuzz engine's synthetic-divergence hook: the invariant suite
    still treats the case as fault-free, so any mismatch the plan causes
    surfaces as a divergence (used to exercise the shrinker end to end).
    """
    result = CaseResult(trace=trace)
    for model in models:
        injector = (fault_injectors or {}).get(model)
        result.runs[model] = run_model(
            trace,
            model,
            config=config,
            fault_injector=injector,
        )
    return result

"""High-level simulation driver: one call from workload name to statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Type

from ..core import MachineConfig, OOOPipeline, SimStats
from ..redundancy import (
    DIEClusterReplicatedPipeline,
    DIEClusterSplitPipeline,
    DIEPipeline,
    FaultInjector,
    SRTPipeline,
)
from ..reuse import (
    DIEIRBFwdPipeline,
    DIEIRBPipeline,
    DIEVPPipeline,
    IRBConfig,
    SIEIRBPipeline,
)
from ..telemetry.events import Tracer
from ..workloads import Trace, load_workload

#: Model registry; keys are the names used throughout the experiments.
MODELS: Dict[str, Type[OOOPipeline]] = {
    "sie": OOOPipeline,
    "die": DIEPipeline,
    "die-irb": DIEIRBPipeline,
    "sie-irb": SIEIRBPipeline,
    "die-irb-fwd": DIEIRBFwdPipeline,
    "die-vp": DIEVPPipeline,
    "die-cluster-split": DIEClusterSplitPipeline,
    "die-cluster-repl": DIEClusterReplicatedPipeline,
    "srt": SRTPipeline,
}

_IRB_MODELS = ("die-irb", "sie-irb", "die-irb-fwd")


def make_pipeline(
    model: str,
    trace: Trace,
    config: Optional[MachineConfig] = None,
    irb_config: Optional[IRBConfig] = None,
) -> OOOPipeline:
    """Construct timing model ``model`` (a key of :data:`MODELS`) over ``trace``.

    ``irb_config`` is for the IRB models only; any other model given one
    is an error, as is an unknown model name.
    """
    try:
        cls = MODELS[model]
    except KeyError:
        raise ValueError(
            f"unknown model {model!r}; choose from {sorted(MODELS)}"
        ) from None
    if model in _IRB_MODELS:
        return cls(trace, config, irb_config)  # type: ignore[call-arg]
    if irb_config is not None:
        raise ValueError(f"model {model!r} takes no IRB configuration")
    return cls(trace, config)


@dataclass
class RunResult:
    """Everything one simulation run produced.

    ``pipeline`` is ``None`` for results that crossed a process boundary
    or were served from the campaign store — only the statistics travel;
    live pipeline state (cache hierarchies, predictors) does not.
    """

    model: str
    workload: str
    stats: SimStats
    pipeline: Optional[OOOPipeline] = None

    @property
    def ipc(self) -> float:
        return self.stats.ipc


# Traces are immutable to the timing models, so they are safely shared
# between runs; regenerating them dominates short sweeps otherwise.
# LRU: hits move the key to the dict's (insertion-ordered) tail, so the
# head — what gets evicted at capacity — is always the least recently
# *used* trace, not merely the oldest-inserted one.
_TRACE_CACHE: Dict[Tuple[str, int, int], Trace] = {}
_TRACE_CACHE_LIMIT = 24


def get_trace(workload: str, n_insts: int, seed: int = 1) -> Trace:
    """Load (and memoize, LRU) the dynamic trace for ``workload``."""
    key = (workload, n_insts, seed)
    trace = _TRACE_CACHE.pop(key, None)
    if trace is None:
        trace = load_workload(workload, n_insts=n_insts, seed=seed)
        if len(_TRACE_CACHE) >= _TRACE_CACHE_LIMIT:
            _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
    _TRACE_CACHE[key] = trace
    return trace


def simulate(
    trace: Trace,
    model: str = "sie",
    config: Optional[MachineConfig] = None,
    irb_config: Optional[IRBConfig] = None,
    fault_injector: Optional[FaultInjector] = None,
    max_cycles: Optional[int] = None,
    warmup: bool = True,
    tracer: Optional[Tracer] = None,
) -> RunResult:
    """Run one timing model over an existing trace.

    Args:
        trace: the dynamic instruction stream.
        model: a key of :data:`MODELS` (``"sie"``, ``"die"``, ``"die-irb"``,
            ``"sie-irb"``, ``"die-irb-fwd"``, ``"die-vp"``,
            ``"die-cluster-split"``, ``"die-cluster-repl"``, ``"srt"``).
        config: machine configuration (baseline if omitted).
        irb_config: IRB parameters (only for the IRB models).
        fault_injector: optional transient-fault plan.
        max_cycles: deadlock guard override.
        warmup: functionally warm caches/predictor before timing (the
            paper's SimPoint regions run with warm state).
        tracer: telemetry sink (``repro.telemetry``); observation only —
            cycle counts are identical with or without one attached.
    """
    pipeline = make_pipeline(model, trace, config, irb_config)
    if fault_injector is not None:
        pipeline.fault_injector = fault_injector
    if tracer is not None:
        pipeline.tracer = tracer
        if fault_injector is not None:
            fault_injector.tracer = tracer
    if warmup:
        pipeline.warm_up()
    stats = pipeline.run(max_cycles=max_cycles)
    return RunResult(model=model, workload=trace.name, stats=stats, pipeline=pipeline)


def run_workload(
    workload: str,
    model: str = "sie",
    n_insts: int = 60_000,
    seed: int = 1,
    config: Optional[MachineConfig] = None,
    irb_config: Optional[IRBConfig] = None,
    fault_injector: Optional[FaultInjector] = None,
    warmup: bool = True,
    tracer: Optional[Tracer] = None,
) -> RunResult:
    """Generate the workload (memoized) and simulate it in one call."""
    trace = get_trace(workload, n_insts, seed)
    return simulate(
        trace,
        model=model,
        config=config,
        irb_config=irb_config,
        fault_injector=fault_injector,
        warmup=warmup,
        tracer=tracer,
    )

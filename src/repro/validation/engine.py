"""The differential fuzzing engine: generate, run, check, shrink, persist.

One *case* is fully determined by ``(campaign seed, case index)``: the
case seed derives a family + profile from :mod:`.adversarial`, the
program generator and functional executor are seeded from it, and every
timing model replays the same trace — so any divergence is replayable
from two integers, and a shrunk case is replayable forever from its
corpus key.

Cases are independent, which is what makes the 10k-program campaign
tractable: ``jobs_n > 1`` fans case indices over the campaign
scheduler's process-pool context (fork keeps the warm interpreter), and
results return in index order so a parallel campaign reports
byte-identically to a serial one.  A worker process dying raises
:class:`~repro.campaign.WorkerLostError` instead of hanging.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..campaign.scheduler import WorkerLostError, _pool_context
from ..campaign.store import ResultStore
from ..redundancy import EXEC_DUP, Fault, FaultInjector
from ..simulation.runner import MODELS
from ..telemetry.events import Tracer
from ..workloads import FunctionalExecutor, Program, generate_program
from .adversarial import sample_profile
from .corpus import (
    case_document,
    case_spec,
    faults_from_spec,
    fuzz_key,
    program_from_dict,
)
from .harness import run_case
from .invariants import Divergence, check_case, models_for
from .shrink import ShrinkResult, shrink_case

#: Default dynamic window per case: long enough to leave the generated
#: prologue and cross kernel boundaries, short enough to keep a nine-model
#: differential run in the tens of milliseconds.
DEFAULT_CASE_INSTS = 1200

#: The synthetic-divergence plan (``--bug``): corrupt the duplicate
#: stream's copy of one early instruction in the DIE model.  The pair
#: check flags it, recovery re-executes it cleanly (faults strike once),
#: and the fault-free-clean invariant reports the mismatch — a real,
#: end-to-end divergence for exercising the shrinker and the corpus.
SYNTHETIC_BUG_MODEL = "die"
SYNTHETIC_BUG_FAULTS = (Fault(EXEC_DUP, seq=2),)


def case_seed(seed: int, index: int) -> int:
    """Derive the per-case seed (stable across engine versions)."""
    return (seed * 1_000_003 + index) & 0x7FFFFFFF


def _determinism_model(models: Sequence[str], index: int) -> str:
    """Rotate the double-checked model so a campaign covers the registry."""
    return models[index % len(models)]


def _synthetic_faults(enabled: bool) -> Optional[Dict[str, List[Fault]]]:
    if not enabled:
        return None
    return {SYNTHETIC_BUG_MODEL: list(SYNTHETIC_BUG_FAULTS)}


def _build_injectors(
    faults: Optional[Dict[str, List[Fault]]]
) -> Optional[Dict[str, FaultInjector]]:
    """Fresh injectors per differential run (they consume their plan)."""
    if not faults:
        return None
    return {model: FaultInjector(list(plan)) for model, plan in faults.items()}


@dataclass(frozen=True)
class CaseOutcome:
    """Everything one fuzz case produced (pickled across workers)."""

    index: int
    seed: int
    family: str
    profile_name: str
    divergences: Tuple[Divergence, ...] = ()


@dataclass
class FuzzFinding:
    """One divergent case, shrunk and persisted."""

    outcome: CaseOutcome
    key: str = ""
    shrink: Optional[ShrinkResult] = None


@dataclass
class FuzzReport:
    """What a fuzz campaign ran and found."""

    cases: int = 0
    models: Tuple[str, ...] = ()
    findings: List[FuzzFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings


ProgressFn = Callable[[int, int, CaseOutcome], None]


def build_case_program(seed: int, index: int) -> Tuple[str, Program]:
    """Deterministically materialize case ``index``'s program image."""
    derived = case_seed(seed, index)
    family, profile = sample_profile(derived)
    return family, generate_program(profile, seed=derived)


def run_one_case(
    program: Program,
    n_insts: int,
    models: Sequence[str],
    index: int,
    faults: Optional[Dict[str, List[Fault]]] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[Divergence, ...]:
    """Execute + check one program; returns its divergences."""
    trace = FunctionalExecutor(program).run(n_insts)
    case = run_case(trace, models, fault_injectors=_build_injectors(faults))
    det_model = _determinism_model(list(models), index)
    injector_factory: Optional[Callable[[], FaultInjector]] = None
    if faults and det_model in faults:
        plan = list(faults[det_model])
        injector_factory = lambda: FaultInjector(list(plan))  # noqa: E731
    # The sampled-reconstruction check rides the same rotation, but only
    # for fault-free models: sampling cannot replay a fault plan.
    sampled_model = None if faults and det_model in faults else det_model
    return tuple(
        check_case(
            case,
            determinism_model=det_model,
            tracer=tracer,
            determinism_injector=injector_factory,
            sampled_model=sampled_model,
        )
    )


def _case_worker(args: Tuple[int, int, int, Tuple[str, ...], bool]) -> CaseOutcome:
    """Process-pool entry point: run one case index to a CaseOutcome."""
    seed, index, n_insts, models, synthetic = args
    family, program = build_case_program(seed, index)
    active = run_one_case(
        program, n_insts, models, index, faults=_synthetic_faults(synthetic)
    )
    return CaseOutcome(
        index=index,
        seed=seed,
        family=family,
        profile_name=program.name,
        divergences=active,
    )


def _reproducer(
    signature: Tuple[str, str],
    models: Sequence[str],
    index: int,
    faults: Optional[Dict[str, List[Fault]]],
) -> Callable[[Program, int], bool]:
    """The shrink oracle: does ``signature`` still fire on a candidate?

    Re-checks only the models the invariant needs (plus the implicated
    one), so shrinking costs a fraction of the original nine-model run.
    """
    invariant, model = signature
    subset = [m for m in models_for(invariant, model) if m in models] or [model]

    def reproduce(program: Program, n_insts: int) -> bool:
        active = run_one_case(program, n_insts, subset, index, faults=faults)
        return any(
            d.invariant == invariant and d.model == model for d in active
        )

    return reproduce


def run_fuzz(
    n: int,
    seed: int = 1,
    models: Optional[Sequence[str]] = None,
    n_insts: int = DEFAULT_CASE_INSTS,
    store: Optional[ResultStore] = None,
    do_shrink: bool = True,
    synthetic_bug: bool = False,
    jobs_n: int = 1,
    tracer: Optional[Tracer] = None,
    progress: Optional[ProgressFn] = None,
) -> FuzzReport:
    """Run ``n`` seeded fuzz cases through the differential harness.

    Divergent cases are shrunk (unless ``do_shrink`` is off) and written
    to ``store`` as replayable corpus documents.  ``progress`` is called
    once per finished case, in index order.
    """
    model_list: Tuple[str, ...] = tuple(models) if models else tuple(sorted(MODELS))
    report = FuzzReport(cases=n, models=model_list)
    faults = _synthetic_faults(synthetic_bug)
    args = [(seed, index, n_insts, model_list, synthetic_bug) for index in range(n)]

    if jobs_n > 1 and n > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs_n, n), mp_context=_pool_context()
        ) as executor:
            try:
                outcomes = list(executor.map(_case_worker, args, chunksize=8))
            except BrokenProcessPool as error:
                raise WorkerLostError(
                    "a fuzz worker died; re-run the campaign"
                ) from error
    else:
        outcomes = [_case_worker(a) for a in args]

    for outcome in outcomes:
        if outcome.divergences:
            finding = _handle_divergent_case(
                outcome, n_insts, model_list, faults, store, do_shrink, tracer
            )
            report.findings.append(finding)
        if progress is not None:
            progress(outcome.index + 1, n, outcome)
    return report


def _handle_divergent_case(
    outcome: CaseOutcome,
    n_insts: int,
    models: Tuple[str, ...],
    faults: Optional[Dict[str, List[Fault]]],
    store: Optional[ResultStore],
    do_shrink: bool,
    tracer: Optional[Tracer],
) -> FuzzFinding:
    """Shrink one divergent case and persist it to the corpus."""
    finding = FuzzFinding(outcome=outcome)
    _, program = build_case_program(outcome.seed, outcome.index)
    final_program, final_n = program, n_insts
    if do_shrink:
        first = outcome.divergences[0]
        reproduce = _reproducer(
            (first.invariant, first.model), models, outcome.index, faults
        )
        if reproduce(program, n_insts):  # deadlock-style cases may not re-fire
            finding.shrink = shrink_case(program, n_insts, reproduce)
            final_program = finding.shrink.program
            final_n = finding.shrink.n_insts
    # Re-emit divergence events for the *persisted* (shrunk) case so a
    # recording tracer holds markers matching the corpus entry.
    active = run_one_case(
        final_program, final_n, models, outcome.index, faults=faults, tracer=tracer
    )
    recorded = active or outcome.divergences
    spec = case_spec(final_program, final_n, models, faults)
    finding.key = fuzz_key(spec)
    if store is not None:
        store.put_fuzz(
            finding.key,
            case_document(
                spec,
                list(recorded),
                meta={
                    "seed": outcome.seed,
                    "index": outcome.index,
                    "family": outcome.family,
                    "profile": outcome.profile_name,
                    "original_static": len(program.insts),
                    "original_n_insts": n_insts,
                },
            ),
        )
    return finding


def replay_case(
    key: str,
    store: ResultStore,
    models: Optional[Sequence[str]] = None,
) -> Tuple[List[Divergence], dict]:
    """Re-run a stored corpus entry; returns (divergences, document).

    Raises :class:`KeyError` when the key is not in the store.
    """
    document = store.get_fuzz(key)
    if document is None:
        raise KeyError(f"no fuzz-corpus entry {key!r} in {store.root}")
    spec = document["spec"]
    program = program_from_dict(spec["program"])
    faults = faults_from_spec(spec)
    model_list = list(models) if models else list(spec["models"])
    index = int(document.get("meta", {}).get("index", 0))
    active = run_one_case(
        program, int(spec["n_insts"]), model_list, index, faults=faults
    )
    return list(active), document

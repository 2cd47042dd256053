"""Declarative cross-model invariant suite.

Each checker takes a :class:`~.harness.CaseResult` and yields
:class:`Divergence` records; ``check_case`` runs the whole catalogue.
The catalogue (documented in ``docs/VALIDATION.md``):

``no-deadlock``
    Every model retires the trace without tripping the deadlock guard.
``commit-exactly-once``
    Every architected instruction commits exactly once per stream and
    ``stats.committed`` equals the trace length.
``oracle-match``
    The primary stream's retirement order reproduces the functional
    oracle's trace exactly — same seqs, same PCs, no gaps.
``fault-free-clean``
    With no faults planned, pair-checking models flag zero mismatches,
    zero recoveries and zero detected faults; DIE-family models check
    exactly one pair per architected instruction.
``redundancy-never-wins``
    No redundant model finishes more than :func:`jitter_slack` cycles
    ahead of SIE on the same trace.
``irb-bounded``
    DIE-IRB (and the forwarding variant) takes no more than
    :func:`reuse_slack` cycles over plain DIE, and finishes no more
    than ``jitter_slack`` below SIE.
``stats-roundtrip``
    Statistics survive the campaign store's dict serialization
    byte-identically.
``sampled-within-tolerance``
    A full-budget sampled run (every interval measured, carved into
    commit windows and re-extrapolated) reproduces the full run's IPC
    within :data:`SAMPLED_IPC_TOLERANCE` and its committed count
    *exactly* (checked by the engine on the per-case rotating model —
    see :func:`check_sampled_tolerance`).
``determinism``
    Re-running a model bare (no auditor, no tracer) and with a metrics
    tracer attached reproduces byte-identical statistics (checked by the
    engine on a per-case rotating model — see :func:`check_determinism`).

A benign, understood violation refines its invariant's bound (as
:func:`jitter_slack` and :func:`reuse_slack` do), documented in
``docs/VALIDATION.md``; nothing is filtered out of ``check_case``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..campaign.store import stats_from_dict, stats_to_dict
from ..simulation.runner import takes_irb_config

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from ..redundancy import FaultInjector
from ..telemetry.events import NULL_TRACER, DivergenceEvent, Tracer
from .harness import (
    REDUNDANT_MODELS,
    CaseResult,
    ModelRun,
    run_model,
)


@dataclass(frozen=True)
class Divergence:
    """One invariant violation on one case."""

    invariant: str
    model: str
    detail: str


def jitter_slack(cycles: int) -> int:
    """Cycles a redundant model may finish *ahead of SIE* without a finding.

    "Redundancy never wins" is an architectural claim about first-order
    cost, not a cycle-exact guarantee: out-of-order scheduling is
    non-monotonic in resource pressure, so the duplicate stream's RUU
    pressure can perturb dispatch interleaving into *better* alignment
    with load latencies and finish a hair earlier.  The first 10k-case
    campaign measured the worst such inversion at 67 cycles / 1.0% of a
    long run and 14 cycles / 4.5% of a very short one (hence the
    absolute floor); a real redundancy bug — a duplicate stream not
    executing at all — shows up at 30%+.  Inversions inside this slack
    are scheduling jitter; beyond it they are findings.
    """
    return max(16, cycles // 50)


def reuse_slack(cycles: int) -> int:
    """Cycles the IRB may *cost* over plain DIE without a finding.

    Reuse is not free: a hit returns through the 3-cycle IRB access
    pipeline, so when the FUs were idle anyway the "saved" duplicate
    retires *later* than execution would have.  On latency-bound traces
    (pointer chases, serial dependency chains) this accumulates — the
    paper's premise is that reuse pays off when ALU *bandwidth* is the
    bottleneck, not always.  The first 10k-case campaign measured the
    worst slowdown at 66 cycles / 6.1% of the run, so the bound is 10%:
    loose enough for the structural cost of the access pipeline, tight
    enough to flag a broken IRB (livelock, recovery storms, repeated
    misses on identical operands), which costs far more.
    """
    return max(16, cycles // 10)


# ---------------------------------------------------------------------------
# Individual checkers.  Each returns a (possibly empty) divergence list.
# ---------------------------------------------------------------------------


def check_no_deadlock(case: CaseResult) -> List[Divergence]:
    return [
        Divergence("no-deadlock", run.model, run.error)
        for run in case.runs.values()
        if run.error
    ]


def check_commit_exactly_once(case: CaseResult) -> List[Divergence]:
    out: List[Divergence] = []
    n = len(case.trace)
    for run in case.runs.values():
        if run.stats is None or run.auditor is None:
            continue
        if run.stats.committed != n:
            out.append(
                Divergence(
                    "commit-exactly-once",
                    run.model,
                    f"committed {run.stats.committed} of {n} instructions",
                )
            )
            continue
        bad = _first_bad_commit_count(run, n)
        if bad is not None:
            seq, stream, count = bad
            out.append(
                Divergence(
                    "commit-exactly-once",
                    run.model,
                    f"seq {seq} stream {stream} committed {count} times",
                )
            )
    return out


def _first_bad_commit_count(
    run: ModelRun, n: int
) -> Optional[Tuple[int, int, int]]:
    assert run.auditor is not None
    commits = run.auditor.commits
    for seq in range(n):
        for stream in range(run.streams):
            count = commits.get((seq, stream), 0)
            if count != 1:
                return seq, stream, count
    # Nothing beyond the trace may ever commit.
    for (seq, stream), count in commits.items():
        if seq >= n:
            return seq, stream, count
    return None


def check_oracle_match(case: CaseResult) -> List[Divergence]:
    out: List[Divergence] = []
    expected = [(i, inst.pc) for i, inst in enumerate(case.trace)]
    for run in case.runs.values():
        if run.stats is None or run.auditor is None:
            continue
        got = run.auditor.primary_order
        if got == expected:
            continue
        detail = f"retired {len(got)} primary commits vs {len(expected)} in the oracle"
        for position, (want, have) in enumerate(zip(expected, got)):
            if want != have:
                detail = (
                    f"commit {position}: oracle seq {want[0]} pc {want[1]:#x}, "
                    f"model retired seq {have[0]} pc {have[1]:#x}"
                )
                break
        out.append(Divergence("oracle-match", run.model, detail))
    return out


def check_fault_free_clean(case: CaseResult) -> List[Divergence]:
    out: List[Divergence] = []
    n = len(case.trace)
    for run in case.runs.values():
        stats = run.stats
        if stats is None:
            continue
        dirty = {
            "check_mismatches": stats.check_mismatches,
            "recoveries": stats.recoveries,
            "faults_detected": stats.faults_detected,
            "faults_injected": stats.faults_injected,
        }
        nonzero = {name: value for name, value in dirty.items() if value}
        if nonzero:
            out.append(
                Divergence(
                    "fault-free-clean",
                    run.model,
                    "fault-free run flagged " + ", ".join(
                        f"{name}={value}" for name, value in sorted(nonzero.items())
                    ),
                )
            )
        if run.model in REDUNDANT_MODELS and stats.pairs_checked != n:
            out.append(
                Divergence(
                    "fault-free-clean",
                    run.model,
                    f"checked {stats.pairs_checked} pairs for {n} instructions",
                )
            )
    return out


def check_redundancy_never_wins(case: CaseResult) -> List[Divergence]:
    sie = case.runs.get("sie")
    if sie is None or sie.stats is None:
        return []
    out: List[Divergence] = []
    slack = jitter_slack(sie.stats.cycles)
    for model in REDUNDANT_MODELS:
        run = case.runs.get(model)
        if run is None or run.stats is None:
            continue
        if run.stats.cycles < sie.stats.cycles - slack:
            out.append(
                Divergence(
                    "redundancy-never-wins",
                    model,
                    f"{model} took {run.stats.cycles} cycles, "
                    f"SIE took {sie.stats.cycles} (slack {slack})",
                )
            )
    return out


#: The IRB models on the two-stream DIE core: reuse must never make them
#: slower than plain DIE.
_DIE_REUSE_MODELS = tuple(m for m in REDUNDANT_MODELS if takes_irb_config(m))


def check_irb_bounded(case: CaseResult) -> List[Divergence]:
    die = case.runs.get("die")
    sie = case.runs.get("sie")
    if die is None or die.stats is None:
        return []
    out: List[Divergence] = []
    slack = reuse_slack(die.stats.cycles)
    for model in _DIE_REUSE_MODELS:
        run = case.runs.get(model)
        if run is None or run.stats is None:
            continue
        if run.stats.cycles > die.stats.cycles + slack:
            out.append(
                Divergence(
                    "irb-bounded",
                    model,
                    f"{model} took {run.stats.cycles} cycles, "
                    f"plain DIE took {die.stats.cycles} "
                    f"(reuse made it slower; slack {slack})",
                )
            )
        if sie is not None and sie.stats is not None and (
            run.stats.cycles < sie.stats.cycles - jitter_slack(sie.stats.cycles)
        ):
            out.append(
                Divergence(
                    "irb-bounded",
                    model,
                    f"{model} took {run.stats.cycles} cycles, "
                    f"below the SIE floor of {sie.stats.cycles}",
                )
            )
    return out


def check_stats_roundtrip(case: CaseResult) -> List[Divergence]:
    out: List[Divergence] = []
    for run in case.runs.values():
        if run.stats is None:
            continue
        restored = stats_from_dict(stats_to_dict(run.stats))
        if restored != run.stats:
            out.append(
                Divergence(
                    "stats-roundtrip",
                    run.model,
                    "stats changed across store dict serialization",
                )
            )
    return out


#: Relative IPC tolerance of the full-budget sampled reconstruction.
#:
#: At ``budget=1.0`` every interval is measured, so the sampled pipeline
#: reduces to: carve the full run into per-interval commit windows,
#: weight them (ensemble + control variate) and extrapolate.  The result
#: is *not* bit-equal to the full run — cycles between one window's last
#: commit and the next window's first commit (squash gaps, drain stalls)
#: belong to neither window, and the ensemble weights equal exact length
#: shares only up to the regression term — but it must be close: a 360
#: fuzz-case sweep across all nine models measured the worst
#: reconstruction error at 9.7% (mean 0.4%), while a real estimator bug
#: (weights that do not sum to one, mis-carved windows, mis-scaled
#: extrapolation) shows up at 50%+.  The bound is set at ~2x the
#: measured worst.
SAMPLED_IPC_TOLERANCE = 0.18


def check_sampled_tolerance(case: CaseResult, model: str) -> List[Divergence]:
    """Full-budget sampled reconstruction must match the full run.

    Runs ``model`` through the sampled-simulation pipeline with
    ``budget=1.0`` (see :data:`SAMPLED_IPC_TOLERANCE`) and checks two
    properties against the case's full run:

    * ``committed`` is *exactly* the trace length — the extrapolation
      policy guarantees the committed estimate maps the constant-1
      covariate to 1, so any deviation is a weighting bug, not noise;
    * IPC is within the documented tolerance.

    Like the determinism invariant this is a per-case single-model check
    (the engine rotates the model), so a campaign covers the registry
    without paying a second nine-model run per case.
    """
    baseline = case.runs.get(model)
    if baseline is None or baseline.stats is None:
        return []
    from ..sampling import SamplingPlan, run_sampled

    plan = SamplingPlan(budget=1.0)
    try:
        sampled = run_sampled(case.trace, plan, model=model)
    except Exception as error:  # deadlock or selection failure = finding
        return [
            Divergence(
                "sampled-within-tolerance",
                model,
                f"sampled run failed: {type(error).__name__}: {error}",
            )
        ]
    out: List[Divergence] = []
    n = len(case.trace)
    if sampled.stats.committed != n:
        out.append(
            Divergence(
                "sampled-within-tolerance",
                model,
                f"extrapolated committed {sampled.stats.committed} "
                f"of {n} instructions (weights must sum to one)",
            )
        )
    full_ipc = baseline.stats.ipc
    if full_ipc > 0:
        error = abs(sampled.ipc - full_ipc) / full_ipc
        if error > SAMPLED_IPC_TOLERANCE:
            out.append(
                Divergence(
                    "sampled-within-tolerance",
                    model,
                    f"sampled IPC {sampled.ipc:.4f} vs full {full_ipc:.4f} "
                    f"({error:.1%} > {SAMPLED_IPC_TOLERANCE:.0%})",
                )
            )
    return out


def check_determinism(
    case: CaseResult,
    model: str,
    injector_factory: Optional[Callable[[], Optional["FaultInjector"]]] = None,
) -> List[Divergence]:
    """Re-run ``model`` bare and under observation.

    Both re-runs must reproduce the audited baseline's statistics byte for
    byte: the bare re-run (no auditor, no tracer) checks run-to-run
    determinism and that the :class:`CommitAuditor` does not perturb the
    model, the traced one that a tracer does not either.  The engine
    rotates ``model`` per case so the whole registry is covered across a
    campaign without paying 2x9 extra runs per case.  When the baseline
    run carried a (synthetic) fault plan, ``injector_factory`` supplies a
    fresh injector per re-run so the comparison stays apples-to-apples —
    fault injection is itself deterministic.
    """
    baseline = case.runs.get(model)
    if baseline is None or baseline.stats is None:
        return []
    from ..telemetry.metrics import MetricsCollector

    out: List[Divergence] = []
    reference = stats_to_dict(baseline.stats)

    def fresh_injector() -> Optional["FaultInjector"]:
        return injector_factory() if injector_factory is not None else None

    reruns = (
        (
            "bare",
            run_model(
                case.trace, model, audit=False,
                fault_injector=fresh_injector(),
            ),
        ),
        (
            "tracer-attached",
            run_model(
                case.trace, model, audit=False, tracer=MetricsCollector(),
                fault_injector=fresh_injector(),
            ),
        ),
    )
    for variant, rerun in reruns:
        if rerun.stats is None:
            out.append(
                Divergence(
                    "determinism", model, f"{variant} re-run deadlocked: {rerun.error}"
                )
            )
            continue
        got = stats_to_dict(rerun.stats)
        if got != reference:
            changed = sorted(
                name for name in reference if got.get(name) != reference[name]
            )
            out.append(
                Divergence(
                    "determinism",
                    model,
                    f"{variant} re-run changed stats fields: {', '.join(changed)}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Suite driver.
# ---------------------------------------------------------------------------

_CHECKERS = (
    check_no_deadlock,
    check_commit_exactly_once,
    check_oracle_match,
    check_fault_free_clean,
    check_redundancy_never_wins,
    check_irb_bounded,
    check_stats_roundtrip,
)

#: Models a shrink oracle needs to reproduce a given invariant (the
#: minimal re-run set; ``None`` means the implicated model alone).
_INVARIANT_CONTEXT: Dict[str, Tuple[str, ...]] = {
    "redundancy-never-wins": ("sie",),
    "irb-bounded": ("sie", "die"),
}


def models_for(invariant: str, model: str) -> Tuple[str, ...]:
    """Minimal model set a re-check of ``(invariant, model)`` must run."""
    context = _INVARIANT_CONTEXT.get(invariant, ())
    ordered = [m for m in context if m != model]
    ordered.append(model)
    return tuple(ordered)


def check_case(
    case: CaseResult,
    determinism_model: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    determinism_injector: Optional[Callable[[], Optional["FaultInjector"]]] = None,
    sampled_model: Optional[str] = None,
) -> List[Divergence]:
    """Run the catalogue; returns every divergence found.

    ``tracer`` receives one :class:`DivergenceEvent` per divergence,
    stamped with the implicated run's final cycle.
    ``sampled_model`` names the model the sampled-reconstruction check
    runs on (``None`` skips it — e.g. when the rotating model carries a
    synthetic fault plan, which sampling cannot reproduce).
    """
    found: List[Divergence] = []
    for checker in _CHECKERS:
        found.extend(checker(case))
    if determinism_model is not None:
        found.extend(
            check_determinism(case, determinism_model, determinism_injector)
        )
    if sampled_model is not None:
        found.extend(check_sampled_tolerance(case, sampled_model))
    if tracer is not None and tracer is not NULL_TRACER:
        for divergence in found:
            run = case.runs.get(divergence.model)
            cycle = run.stats.cycles if run is not None and run.stats else 0
            tracer.emit(
                DivergenceEvent(
                    cycle=cycle,
                    invariant=divergence.invariant,
                    model=divergence.model,
                    detail=divergence.detail,
                )
            )
    return found

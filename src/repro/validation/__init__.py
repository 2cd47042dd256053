"""Differential fuzzing + invariant validation across every timing model.

The paper's numbers are cross-model comparisons, so silent divergence
between the nine pipelines corrupts everything downstream.  This package
makes cross-model agreement a generative, machine-checked property:

* :mod:`.adversarial` — seeded random ``WorkloadProfile`` sampling,
  including stress families the curated apps never reach.
* :mod:`.harness` — one trace through the oracle plus all nine models,
  with commit auditing.
* :mod:`.invariants` — the declarative invariant catalogue
  (``docs/VALIDATION.md``).
* :mod:`.shrink` — delta-debugging minimizer for divergent programs.
* :mod:`.corpus` — replayable corpus documents, content-addressed
  through the campaign store's ``.fuzz.json`` side-cars.
* :mod:`.engine` — the campaign driver behind ``repro fuzz``.
"""

from .adversarial import FAMILIES, sample_profile
from .corpus import (
    FUZZ_CODE_VERSION,
    case_document,
    case_spec,
    fuzz_key,
    program_from_dict,
    program_to_dict,
)
from .engine import (
    DEFAULT_CASE_INSTS,
    CaseOutcome,
    FuzzFinding,
    FuzzReport,
    build_case_program,
    case_seed,
    replay_case,
    run_fuzz,
    run_one_case,
)
from .harness import (
    PAIR_CHECKED_MODELS,
    REDUNDANT_MODELS,
    CaseResult,
    CommitAuditor,
    ModelRun,
    run_case,
    run_model,
)
from .invariants import (
    Divergence,
    check_case,
    check_determinism,
    jitter_slack,
    models_for,
    reuse_slack,
)
from .shrink import ShrinkResult, rebuild, shrink_case

__all__ = [
    "CaseOutcome",
    "CaseResult",
    "CommitAuditor",
    "DEFAULT_CASE_INSTS",
    "Divergence",
    "FAMILIES",
    "FUZZ_CODE_VERSION",
    "FuzzFinding",
    "FuzzReport",
    "ModelRun",
    "PAIR_CHECKED_MODELS",
    "REDUNDANT_MODELS",
    "ShrinkResult",
    "build_case_program",
    "case_document",
    "case_seed",
    "case_spec",
    "check_case",
    "check_determinism",
    "fuzz_key",
    "jitter_slack",
    "models_for",
    "program_from_dict",
    "program_to_dict",
    "rebuild",
    "replay_case",
    "reuse_slack",
    "run_case",
    "run_fuzz",
    "run_model",
    "run_one_case",
    "sample_profile",
    "shrink_case",
]

"""Tests for the differential fuzzing + invariant validation subsystem.

Covers the adversarial profile sampler, the nine-model harness, every
invariant checker (clean and deliberately-tampered cases), the
delta-debugging shrinker, the replayable corpus (store side-cars), the
engine end-to-end with a synthetic injected divergence, parallel/serial
byte-identity, and the telemetry surface (divergence events in the
metrics collector and the Perfetto exporter).
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from helpers import call_with_timeout
from repro.campaign import WorkerLostError
from repro.campaign.store import ResultStore
from repro.redundancy import EXEC_DUP, Fault
from repro.simulation import MODELS
from repro.telemetry import DivergenceEvent, MetricsCollector, chrome_trace
from repro.validation import (
    DEFAULT_CASE_INSTS,
    FAMILIES,
    CommitAuditor,
    Divergence,
    build_case_program,
    case_document,
    case_seed,
    case_spec,
    check_case,
    check_determinism,
    fuzz_key,
    jitter_slack,
    models_for,
    program_from_dict,
    program_to_dict,
    rebuild,
    replay_case,
    reuse_slack,
    run_case,
    run_fuzz,
    run_one_case,
    sample_profile,
    shrink_case,
)
from repro.validation import engine
from repro.validation.corpus import faults_from_spec
from repro.validation.engine import SYNTHETIC_BUG_MODEL
from repro.workloads import FunctionalExecutor

ALL_MODELS = tuple(sorted(MODELS))
FAST_MODELS = ("sie", "die", "die-irb")


@pytest.fixture(scope="module")
def small_case():
    """One adversarial program run through a fast model subset."""
    _, program = build_case_program(seed=1, index=0)
    trace = FunctionalExecutor(program).run(400)
    return run_case(trace, FAST_MODELS)


@pytest.fixture(scope="module")
def fuzz_program():
    _, program = build_case_program(seed=1, index=0)
    return program


# ---------------------------------------------------------------------------
# Adversarial sampler
# ---------------------------------------------------------------------------


def test_sampler_is_deterministic():
    family_a, profile_a = sample_profile(12345)
    family_b, profile_b = sample_profile(12345)
    assert family_a == family_b
    assert profile_a == profile_b


def test_sampler_covers_every_family():
    seen = {sample_profile(case_seed(1, index))[0] for index in range(200)}
    assert seen == set(FAMILIES)


def test_sampled_profiles_generate_runnable_programs():
    for index in (0, 7, 42):
        _, program = build_case_program(seed=3, index=index)
        trace = FunctionalExecutor(program).run(200)
        assert len(trace) == 200


# ---------------------------------------------------------------------------
# Invariant checkers: clean case, then deliberate tampering
# ---------------------------------------------------------------------------


def test_clean_case_has_no_divergences(small_case):
    assert check_case(small_case) == []


def test_determinism_check_is_clean(small_case):
    assert check_determinism(small_case, "die") == []


def _tampered(case, model):
    """A shallow copy of ``case`` whose ``model`` run can be doctored."""
    runs = dict(case.runs)
    run = runs[model]
    runs[model] = dataclasses.replace(
        run, stats=dataclasses.replace(run.stats)
    )
    return dataclasses.replace(case, runs=runs), runs[model]


def test_deadlock_is_reported(small_case):
    case, run = _tampered(small_case, "die")
    run.error = "deadlock at cycle 7"
    active = check_case(case)
    assert Divergence("no-deadlock", "die", "deadlock at cycle 7") in active


def test_commit_count_mismatch_is_reported(small_case):
    case, run = _tampered(small_case, "sie")
    run.stats.committed -= 1
    active = check_case(case)
    assert any(
        d.invariant == "commit-exactly-once" and d.model == "sie" for d in active
    )


def test_oracle_order_violation_is_reported(small_case):
    case, run = _tampered(small_case, "sie")
    original = run.auditor
    doctored = CommitAuditor()
    doctored.commits = dict(original.commits)
    doctored.primary_order = list(original.primary_order)
    doctored.primary_order[0], doctored.primary_order[1] = (
        doctored.primary_order[1],
        doctored.primary_order[0],
    )
    run.auditor = doctored
    active = check_case(case)
    assert any(d.invariant == "oracle-match" and d.model == "sie" for d in active)


def test_fault_counters_violate_fault_free_clean(small_case):
    case, run = _tampered(small_case, "die")
    run.stats.check_mismatches = 2
    active = check_case(case)
    assert any(
        d.invariant == "fault-free-clean" and d.model == "die" for d in active
    )


def test_redundant_model_beating_sie_is_reported(small_case):
    case, run = _tampered(small_case, "die")
    run.stats.cycles = case.runs["sie"].stats.cycles // 2
    active = check_case(case)
    assert any(d.invariant == "redundancy-never-wins" for d in active)


def test_small_timing_inversions_are_jitter_not_findings(small_case):
    """Inversions inside the documented slack do not fire (see
    docs/VALIDATION.md: second-order scheduling jitter)."""
    case, run = _tampered(small_case, "die")
    run.stats.cycles = case.runs["sie"].stats.cycles - 1
    active = check_case(case)
    assert not any(d.invariant == "redundancy-never-wins" for d in active)


def test_jitter_slack_floor_and_scale():
    assert jitter_slack(100) == 16  # absolute floor for short runs
    assert jitter_slack(10_000) == 200  # 2% of the run
    assert reuse_slack(100) == 16
    assert reuse_slack(10_000) == 1_000  # 10%: the IRB pipeline is not free


def test_irb_slower_than_die_is_reported(small_case):
    case, run = _tampered(small_case, "die-irb")
    run.stats.cycles = case.runs["die"].stats.cycles * 2
    active = check_case(case)
    assert any(d.invariant == "irb-bounded" and d.model == "die-irb" for d in active)


def test_divergences_are_emitted_to_tracer(small_case):
    case, run = _tampered(small_case, "die")
    run.error = "deadlock"
    collector = MetricsCollector()
    check_case(case, tracer=collector)
    assert collector.divergences == {"no-deadlock": 1}
    assert collector.snapshot()["divergences"] == {"no-deadlock": 1}


def test_models_for_includes_context():
    assert models_for("redundancy-never-wins", "die") == ("sie", "die")
    assert models_for("irb-bounded", "die-irb") == ("sie", "die", "die-irb")
    assert models_for("oracle-match", "srt") == ("srt",)


# ---------------------------------------------------------------------------
# Corpus serialization + store side-cars
# ---------------------------------------------------------------------------


def test_program_roundtrips_through_dict(fuzz_program):
    restored = program_from_dict(program_to_dict(fuzz_program))
    assert restored == fuzz_program


def test_fuzz_key_is_stable_and_content_addressed(fuzz_program):
    spec_a = case_spec(fuzz_program, 100, FAST_MODELS)
    spec_b = case_spec(fuzz_program, 100, FAST_MODELS)
    assert fuzz_key(spec_a) == fuzz_key(spec_b)
    assert fuzz_key(case_spec(fuzz_program, 101, FAST_MODELS)) != fuzz_key(spec_a)


def test_fault_plans_roundtrip_through_spec(fuzz_program):
    faults = {"die": [Fault(EXEC_DUP, seq=2)]}
    spec = case_spec(fuzz_program, 50, ("die",), faults)
    document = json.loads(json.dumps(case_document(spec, [], meta={})))
    restored = faults_from_spec(document["spec"])
    assert restored == faults


def test_store_fuzz_side_cars(tmp_path, fuzz_program):
    store = ResultStore(tmp_path)
    spec = case_spec(fuzz_program, 64, FAST_MODELS)
    key = fuzz_key(spec)
    document = case_document(
        spec, [Divergence("no-deadlock", "die", "boom")], meta={"index": 0}
    )
    store.put_fuzz(key, document)
    assert store.get_fuzz(key) == json.loads(json.dumps(document))
    assert list(store.fuzz_keys()) == [key]
    # Fuzz side-cars never masquerade as campaign results.
    assert list(store.keys()) == []
    assert len(store) == 0
    assert store.get_fuzz("0" * 64) is None
    store.clear()
    assert list(store.fuzz_keys()) == []


# ---------------------------------------------------------------------------
# Shrinker
# ---------------------------------------------------------------------------


def test_rebuild_remaps_pcs_and_targets(fuzz_program):
    keep = [i for i in range(len(fuzz_program.insts)) if i % 2 == 0]
    rebuilt = rebuild(fuzz_program, keep)
    assert rebuilt is not None
    for index, inst in enumerate(rebuilt.insts):
        assert inst.pc == 4 * index
        if inst.target is not None:
            assert 0 <= inst.target < 4 * len(rebuilt.insts)


def test_rebuild_of_nothing_is_none(fuzz_program):
    assert rebuild(fuzz_program, []) is None


def test_shrink_on_predicate_hits_single_instruction(fuzz_program):
    """A divergence caused by one opcode shrinks to (nearly) just it."""
    from collections import Counter

    marker = Counter(
        inst.opcode for inst in fuzz_program.insts
    ).most_common(1)[0][0]

    def reproduce_marker(program, n_insts):
        trace = FunctionalExecutor(program).run(min(n_insts, 64))
        return any(inst.opcode is marker for inst in trace)

    assert reproduce_marker(fuzz_program, 256)
    result = shrink_case(fuzz_program, 256, reproduce_marker)
    assert result.static_insts <= 4
    assert result.n_insts <= 256
    assert result.original_static == len(fuzz_program.insts)


# ---------------------------------------------------------------------------
# Engine end-to-end
# ---------------------------------------------------------------------------


def test_clean_fuzz_run(replay_hint):
    replay_hint("PYTHONPATH=src python -m repro fuzz --n 2 --seed 1 --no-store")
    report = run_fuzz(2, seed=1, n_insts=300, store=None)
    assert report.clean
    assert report.cases == 2
    assert report.models == ALL_MODELS


def test_synthetic_bug_is_found_shrunk_stored_and_replayed(tmp_path, replay_hint):
    store = ResultStore(tmp_path)
    report = run_fuzz(
        1, seed=7, n_insts=300, store=store, synthetic_bug=True
    )
    assert len(report.findings) == 1
    finding = report.findings[0]
    replay_hint(
        f"PYTHONPATH=src python -m repro fuzz --replay {finding.key} "
        f"--store-dir {tmp_path}"
    )
    assert any(
        d.invariant == "fault-free-clean" and d.model == SYNTHETIC_BUG_MODEL
        for d in finding.outcome.divergences
    )
    # Acceptance bar: the shrinker lands at <= 20 static instructions.
    assert finding.shrink is not None
    assert finding.shrink.static_insts <= 20
    assert finding.key in list(store.fuzz_keys())

    divergences, document = replay_case(finding.key, store)
    assert any(
        d.invariant == "fault-free-clean" and d.model == SYNTHETIC_BUG_MODEL
        for d in divergences
    )
    assert document["meta"]["index"] == 0


def test_replay_unknown_key_raises(tmp_path):
    with pytest.raises(KeyError):
        replay_case("f" * 64, ResultStore(tmp_path))


def test_parallel_fuzz_matches_serial():
    serial = run_fuzz(4, seed=2, models=FAST_MODELS, n_insts=200, store=None)
    parallel = run_fuzz(
        4, seed=2, models=FAST_MODELS, n_insts=200, store=None, jobs_n=2
    )
    assert serial.clean and parallel.clean
    assert serial.models == parallel.models == FAST_MODELS


_REAL_CASE_WORKER = engine._case_worker


def _case_worker_dying_on_index_3(args):
    # Module-level so the pool can pickle it by name.
    if args[1] == 3:
        os._exit(13)
    return _REAL_CASE_WORKER(args)


def test_parallel_fuzz_raises_on_lost_worker(monkeypatch):
    monkeypatch.setattr(engine, "_case_worker", _case_worker_dying_on_index_3)
    with pytest.raises(WorkerLostError):
        call_with_timeout(
            lambda: run_fuzz(
                6, seed=2, models=FAST_MODELS, n_insts=200, store=None, jobs_n=2
            ),
            60,
        )


def test_case_outcomes_identical_across_workers():
    """Worker processes must report byte-identically to in-process runs."""
    from repro.validation.engine import _case_worker

    args = (5, 3, 200, FAST_MODELS, False)
    assert _case_worker(args) == _case_worker(args)


def test_run_one_case_flags_injected_fault(fuzz_program):
    faults = {"die": [Fault(EXEC_DUP, seq=2)]}
    active = run_one_case(fuzz_program, 200, ("sie", "die"), 0, faults=faults)
    assert any(
        d.invariant == "fault-free-clean" and d.model == "die" for d in active
    )


def test_default_case_budget_is_sane():
    assert DEFAULT_CASE_INSTS >= 500


# ---------------------------------------------------------------------------
# Pinned campaign findings (first 10k-case triage, seed 1, n_insts 500)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "index, slower_model, faster_model, models, slack_fn",
    [
        # DIE finished 26/3940 cycles ahead of SIE on a pointer-chase
        # trace: RUU-pressure-shifted dispatch realigned load timing.
        (5778, "sie", "die", ("sie", "die", "die-irb"), jitter_slack),
        # The worst SIE inversion on a short run: die-cluster-repl beat
        # SIE by 14/311 cycles (4.5%) — why jitter_slack has an
        # absolute floor, not just a percentage.
        (8169, "sie", "die-cluster-repl", ("sie", "die-cluster-repl"), jitter_slack),
        # DIE-IRB lost 20/2662 cycles to plain DIE: reused duplicates
        # arriving through the 3-cycle IRB pipeline retire later than
        # idle FUs would have executed them.
        (627, "die-irb", "die", ("sie", "die", "die-irb"), reuse_slack),
        # The worst IRB slowdown of the campaign: 66/1090 cycles (6.1%)
        # on a latency-bound trace where reuse structurally cannot pay.
        (321, "die-irb", "die", ("sie", "die", "die-irb"), reuse_slack),
    ],
)
def test_campaign_timing_inversions_stay_within_jitter(
    index, slower_model, faster_model, models, slack_fn
):
    """The triaged 10k-campaign inversions exist, and stay inside the
    documented slack — if either half fails, docs/VALIDATION.md's
    jitter analysis needs revisiting."""
    _, program = build_case_program(seed=1, index=index)
    trace = FunctionalExecutor(program).run(500)
    case = run_case(trace, models)
    slower = case.runs[slower_model].stats.cycles
    faster = case.runs[faster_model].stats.cycles
    # The inversion is real (the "wrong" model is genuinely slower)...
    assert slower > faster
    # ...but second-order: inside the documented slack.
    assert slower - faster <= slack_fn(slower)
    active = run_one_case(program, 500, models, index)
    assert active == ()


# ---------------------------------------------------------------------------
# Telemetry surface
# ---------------------------------------------------------------------------


def test_divergence_event_in_chrome_trace():
    events = [
        DivergenceEvent(cycle=12, invariant="oracle-match", model="srt", detail="x")
    ]
    document = chrome_trace(events)
    names = [entry.get("name", "") for entry in document["traceEvents"]]
    assert any(name == "divergence:oracle-match" for name in names)


def test_metrics_collector_counts_divergences_by_invariant():
    collector = MetricsCollector()
    collector.emit(DivergenceEvent(1, "oracle-match", "sie", "a"))
    collector.emit(DivergenceEvent(2, "oracle-match", "die", "b"))
    collector.emit(DivergenceEvent(3, "no-deadlock", "srt", "c"))
    assert collector.divergences == {"no-deadlock": 1, "oracle-match": 2}

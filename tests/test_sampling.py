"""Tier-1 tests for the sampled-simulation subsystem (``repro.sampling``).

Covers the contracts the rest of the repo leans on: deterministic BBV
fingerprints (cross-process, hash-seed independent), store-key
separation between sampled and full runs, the exact-extrapolation policy
(weights sum to one so committed instructions reconstruct exactly),
the faults x sampling mutual exclusion, campaign integration (ambient
plan, warm re-runs from the store) and the ``sample report`` CLI
artifact.  Accuracy at scale is gated separately by
``repro sample validate`` (the CI ``sample-smoke`` job runs it).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import (
    Job,
    ResultStore,
    campaign_context,
    current_context,
    job_key,
    run_campaign,
)
from repro.campaign.keys import job_spec
from repro.redundancy import EXEC_DUP, Fault
from repro.sampling import (
    SamplingPlan,
    profile_trace,
    run_sampled,
    select_regions,
)
from repro.simulation import get_trace, simulate
from repro.validation.harness import run_case
from repro.validation.invariants import check_sampled_tolerance

N = 9_000
REPO_ROOT = Path(__file__).resolve().parent.parent


def _fingerprints_via_subprocess(hash_seed: str) -> str:
    """Concatenated BBV fingerprints computed in a fresh interpreter."""
    script = (
        "from repro.simulation import get_trace\n"
        "from repro.sampling import profile_trace\n"
        f"profile = profile_trace(get_trace('gzip', {N}), 150)\n"
        "print(''.join(i.fingerprint for i in profile.intervals))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONHASHSEED": hash_seed},
    )
    return result.stdout.strip()


class TestBBVDeterminism:
    def test_fingerprints_identical_across_processes(self):
        """Same workload => byte-identical fingerprints, even with
        different interpreter hash seeds (dict order must not leak)."""
        first = _fingerprints_via_subprocess("0")
        second = _fingerprints_via_subprocess("12345")
        assert first and first == second

    def test_in_process_profile_matches_subprocess(self):
        profile = profile_trace(get_trace("gzip", N), 150)
        joined = "".join(i.fingerprint for i in profile.intervals)
        assert joined == _fingerprints_via_subprocess("7")

    def test_selection_is_deterministic(self):
        trace = get_trace("vpr", N)
        plan = SamplingPlan()
        a = select_regions(trace, plan)
        b = select_regions(get_trace("vpr", N), plan)
        assert a.phase_of == b.phase_of
        assert [(r.start, r.end, r.weight) for r in a.regions] == [
            (r.start, r.end, r.weight) for r in b.regions
        ]


class TestStoreKeys:
    def test_sampled_and_full_jobs_never_share_a_key(self):
        full = Job("gzip", N)
        sampled = Job("gzip", N, sampling=SamplingPlan())
        assert job_key(full) != job_key(sampled)

    def test_plan_parameters_are_key_material(self):
        base = job_key(Job("gzip", N, sampling=SamplingPlan()))
        plan = SamplingPlan(budget=0.25)
        assert job_key(Job("gzip", N, sampling=plan)) != base

    def test_full_job_spec_omits_sampling(self):
        """Legacy key stability: pre-sampling store keys must not move."""
        assert "sampling" not in job_spec(Job("gzip", N))
        assert "sampling" in job_spec(Job("gzip", N, sampling=SamplingPlan()))


class TestExtrapolationPolicy:
    def test_committed_reconstructs_exactly(self):
        """Region weights sum to one, so extrapolated committed == N."""
        trace = get_trace("gzip", N)
        sampled = run_sampled(trace, SamplingPlan())
        assert sampled.stats.committed == N

    def test_coverage_respects_budget(self):
        plan = SamplingPlan()
        for app in ("gzip", "mcf"):
            selection = select_regions(get_trace(app, N), plan)
            assert selection.coverage <= plan.budget + 1e-9

    @pytest.mark.parametrize("model", ["die-irb", "sie-irb"])
    def test_sampled_ipc_close_to_full(self, model):
        trace = get_trace("gzip", 20_000)
        full = simulate(trace, model=model)
        sampled = run_sampled(trace, SamplingPlan(), model=model)
        assert abs(sampled.ipc - full.ipc) / full.ipc < 0.06
        # Issue counts are binned from issue events, reuse hits included.
        issued = full.stats.issued
        assert abs(sampled.stats.issued - issued) / issued < 0.06

    def test_full_budget_reconstruction_invariant(self):
        """The fuzz invariant's exact check, on a real trace: at
        budget=1.0 every interval is measured and committed is exact."""
        case = run_case(get_trace("art", 6_000), ["sie"])
        assert check_sampled_tolerance(case, "sie") == []


class TestFaultsExclusion:
    def test_job_rejects_faults_with_sampling(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            Job(
                "gzip",
                N,
                faults=(Fault(EXEC_DUP, seq=2),),
                sampling=SamplingPlan(),
            )


class TestCampaignIntegration:
    def test_context_carries_sampling_plan(self):
        plan = SamplingPlan()
        with campaign_context(sampling=plan):
            assert current_context().sampling is plan
        assert current_context() is None

    def test_warm_rerun_runs_zero_simulations(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = [
            Job("gzip", N, model=m, sampling=SamplingPlan())
            for m in ("sie", "die")
        ]
        cold = run_campaign(jobs, store=store)
        assert cold.executed == 2 and cold.store_hits == 0
        warm = run_campaign(jobs, store=store)
        assert warm.executed == 0 and warm.store_hits == 2
        for first, second in zip(cold.results, warm.results):
            assert first.stats == second.stats


class TestSampleReportCLI:
    def test_json_artifact_is_complete(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "sample",
                "report",
                "gzip",
                "--n",
                str(N),
                "--json",
            ],
            capture_output=True,
            text=True,
            check=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
        )
        payload = json.loads(result.stdout)
        assert payload["workload"] == "gzip"
        assert payload["n_insts"] == N
        assert len(payload["phase_of"]) == payload["intervals"]
        assert payload["coverage"] <= payload["plan"]["budget"] + 1e-9
        weights = [region["weight"] for region in payload["regions"]]
        assert abs(sum(weights) - 1.0) < 1e-9

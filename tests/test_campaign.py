"""Tests for the campaign harness (repro.campaign).

The heart of the subsystem's contract:

* determinism — the same job set at ``jobs_n=1`` and ``jobs_n=4``
  yields byte-identical statistics in identical order;
* the store round-trips every ``SimStats`` field;
* keys are sensitive to every part of the spec and stable across
  processes.
"""

import dataclasses
import json
import os
import time

import pytest

from helpers import call_with_timeout
from repro.campaign import (
    CODE_VERSION,
    Job,
    Provenance,
    ResultStore,
    WorkerLostError,
    campaign_context,
    current_context,
    job_key,
    job_spec,
    run_campaign,
    stats_from_dict,
    stats_to_dict,
)
from repro.core import MachineConfig, SimStats
from repro.isa import FUClass
from repro.redundancy import EXEC_PRIMARY, Fault
from repro.reuse import IRBConfig
from repro.simulation import sweep_jobs

N = 3000  # small enough for CI, large enough for non-trivial stats


def small_jobs():
    return [
        Job("gzip", N, model="sie"),
        Job("gzip", N, model="die"),
        Job("gzip", N, model="die-irb", irb_config=IRBConfig(entries=256)),
        Job("ammp", N, model="sie"),
        Job("gzip", N, model="sie"),  # duplicate of job 0
    ]


def stats_dicts(outcome):
    return [r.stats.to_dict() for r in outcome.results]


class TestJob:
    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            Job("gzip", N, model="warp")

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            Job("gzip", 0)

    def test_faults_coerced_to_tuple(self):
        job = Job("gzip", N, model="die", faults=[Fault(EXEC_PRIMARY, seq=5)])
        assert isinstance(job.faults, tuple)

    def test_trace_key_groups_variants(self):
        a = Job("gzip", N, model="sie")
        b = Job("gzip", N, model="die")
        assert a.trace_key == b.trace_key == ("gzip", N, 1)


class TestKeys:
    def test_key_is_stable(self):
        assert job_key(Job("gzip", N)) == job_key(Job("gzip", N))

    def test_key_changes_with_every_spec_field(self):
        base = Job("gzip", N, model="die-irb")
        variants = [
            Job("ammp", N, model="die-irb"),
            Job("gzip", N + 1, model="die-irb"),
            Job("gzip", N, model="die-irb", seed=2),
            Job("gzip", N, model="die"),
            Job("gzip", N, model="die-irb", config=MachineConfig.baseline().scaled(alu=2)),
            Job("gzip", N, model="die-irb", irb_config=IRBConfig(entries=512)),
            Job("gzip", N, model="die-irb", faults=(Fault(EXEC_PRIMARY, seq=1),)),
            Job("gzip", N, model="die-irb", warmup=False),
            Job("gzip", N, model="die-irb", max_cycles=10),
        ]
        keys = {job_key(v) for v in variants}
        assert job_key(base) not in keys
        assert len(keys) == len(variants), "two distinct specs collided"

    def test_key_changes_with_any_machine_config_field(self):
        base_cfg = MachineConfig.baseline()
        base_key = job_key(Job("gzip", N, config=base_cfg))
        for f in dataclasses.fields(MachineConfig):
            if f.name in ("hierarchy", "predictor"):
                continue
            bumped = dataclasses.replace(base_cfg, **{f.name: getattr(base_cfg, f.name) + 1})
            assert job_key(Job("gzip", N, config=bumped)) != base_key, f.name

    def test_key_salted_with_code_version(self):
        spec = job_spec(Job("gzip", N))
        assert spec["__code_version__"] == CODE_VERSION

    def test_default_config_distinct_from_explicit_baseline(self):
        # None means "baseline" semantically, but the spec records the
        # difference; both are stable, which is all the store needs.
        implicit = job_key(Job("gzip", N))
        explicit = job_key(Job("gzip", N, config=MachineConfig.baseline()))
        assert implicit != explicit


class TestStoreRoundTrip:
    def test_stats_round_trip_preserves_every_field(self):
        outcome = run_campaign([Job("gzip", N, model="die-irb")])
        stats = outcome.results[0].stats
        assert stats.irb_lookups > 0  # exercise the FU/IRB dicts
        rebuilt = stats_from_dict(stats_to_dict(stats))
        for f in dataclasses.fields(SimStats):
            assert getattr(rebuilt, f.name) == getattr(stats, f.name), f.name

    def test_fu_dict_keys_survive_as_enums(self):
        stats = SimStats(cycles=10, committed=8)
        stats.count_fu_issue(FUClass.INT_ALU)
        rebuilt = stats_from_dict(stats_to_dict(stats))
        assert rebuilt.fu_issued == {FUClass.INT_ALU: 1}

    def test_store_get_put(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        job = Job("gzip", N)
        assert store.get_job(job) is None
        stats = SimStats(cycles=100, committed=50)
        store.put(job, stats, Provenance("run", 1.5, CODE_VERSION))
        found = store.get_job(job)
        assert found is not None
        got_stats, provenance = found
        assert got_stats.cycles == 100 and got_stats.committed == 50
        assert provenance.source == "store"
        assert provenance.wall_time_s == 1.5
        assert provenance.code_version == CODE_VERSION

    def test_store_document_is_json_with_spec(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        job = Job("gzip", N, model="die")
        key = store.put(job, SimStats(cycles=1, committed=1), Provenance("run", 0.0, CODE_VERSION))
        document = json.loads(store.path_for(key).read_text())
        assert document["key"] == key
        assert document["spec"]["model"] == "die"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        job = Job("gzip", N)
        key = store.put(job, SimStats(cycles=1, committed=1), Provenance("run", 0.0, CODE_VERSION))
        store.path_for(key).write_text("{ truncated")
        assert store.get(key) is None

    def test_clear_and_len(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for model in ("sie", "die"):
            store.put(Job("gzip", N, model=model), SimStats(cycles=1, committed=1),
                      Provenance("run", 0.0, CODE_VERSION))
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0


class TestDeterminism:
    def test_serial_and_parallel_identical(self):
        jobs = small_jobs()
        serial = run_campaign(jobs, jobs_n=1)
        parallel = run_campaign(jobs, jobs_n=4)
        assert stats_dicts(serial) == stats_dicts(parallel)

    def test_result_order_matches_submission_order(self):
        jobs = small_jobs()
        outcome = run_campaign(jobs, jobs_n=4)
        assert [r.job for r in outcome.results] == jobs

    def test_duplicate_jobs_simulate_once(self):
        jobs = small_jobs()  # job 4 duplicates job 0
        outcome = run_campaign(jobs, jobs_n=1)
        assert outcome.executed == 4
        assert outcome.deduped == 1
        assert (
            outcome.results[0].stats.to_dict() == outcome.results[4].stats.to_dict()
        )

    def test_matches_direct_simulation(self):
        from repro.simulation import get_trace, simulate

        outcome = run_campaign([Job("gzip", N, model="die")], jobs_n=1)
        direct = simulate(get_trace("gzip", N, 1), model="die")
        assert outcome.results[0].stats.to_dict() == direct.stats.to_dict()


class TestStoreBackedCampaign:
    def test_second_run_is_all_hits(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        jobs = small_jobs()
        first = run_campaign(jobs, jobs_n=1, store=store)
        assert first.executed == 4 and first.store_hits == 0
        second = run_campaign(jobs, jobs_n=4, store=store)
        assert second.executed == 0
        assert second.store_hits == len(jobs)
        assert stats_dicts(first) == stats_dicts(second)

    def test_store_results_marked_with_provenance(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        jobs = [Job("gzip", N)]
        fresh = run_campaign(jobs, store=store).results[0]
        assert not fresh.from_store
        assert fresh.provenance.wall_time_s > 0
        replay = run_campaign(jobs, store=store).results[0]
        assert replay.from_store

    def test_progress_called_for_every_job(self, tmp_path):
        seen = []
        run_campaign(
            small_jobs(),
            store=ResultStore(tmp_path / "store"),
            progress=lambda done, total, result: seen.append((done, total)),
        )
        assert seen == [(i, 5) for i in range(1, 6)]


class TestCampaignContext:
    def test_context_installs_and_restores(self):
        assert current_context() is None
        with campaign_context(jobs_n=2) as context:
            assert current_context() is context
        assert current_context() is None

    def test_run_campaign_uses_ambient_context(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with campaign_context(jobs_n=1, store=store) as context:
            run_campaign([Job("gzip", N)])
            assert context.executed == 1
            run_campaign([Job("gzip", N)])
            assert context.store_hits == 1

    def test_experiment_registry_plumbing(self, tmp_path):
        from repro.experiments import get_experiment

        store = ResultStore(tmp_path / "store")
        experiment = get_experiment("F5")
        first = experiment.run(apps=("gzip",), n_insts=N, parallel=2, store=store)
        assert store.writes > 0
        again = experiment.run(apps=("gzip",), n_insts=N, parallel=2, store=store)
        assert [r.sie_ipc for r in again.entries] == [r.sie_ipc for r in first.entries]
        assert store.hits >= store.writes


class TestSweepJobs:
    def test_sweep_jobs_product_order(self, tmp_path):
        results = sweep_jobs(
            [("model", ["sie", "die"]), ("seed", [1, 2])],
            lambda model, seed: Job("gzip", N, model=model, seed=seed),
            jobs_n=1,
            store=ResultStore(tmp_path / "store"),
        )
        assert [r.params for r in results] == [
            {"model": "sie", "seed": 1},
            {"model": "sie", "seed": 2},
            {"model": "die", "seed": 1},
            {"model": "die", "seed": 2},
        ]
        for r in results:
            assert r.value.stats.committed == N


class TestFaultJobs:
    def test_fault_plan_runs_and_keys(self):
        plan = (Fault(EXEC_PRIMARY, seq=100),)
        job = Job("gzip", N, model="die", faults=plan)
        outcome = run_campaign([job], jobs_n=1)
        assert outcome.results[0].stats.faults_injected == 1
        assert job_key(job) != job_key(Job("gzip", N, model="die"))


class TestCrashDurability:
    """Torn writes must never surface as store entries (satellite of the
    service tier's fsync-hardened write path)."""

    def test_truncated_temp_file_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        job = Job("gzip", N)
        key = store.put(job, SimStats(cycles=1, committed=1), Provenance("run", 0.1, CODE_VERSION))
        # Simulate a writer that died between mkstemp and os.replace:
        # its temp file sits in the shard dir next to the real entry.
        shard = store.path_for(key).parent
        torn = shard / ".tmp-deadbeef.json"
        torn.write_text('{"format": 1, "stats": {"cyc')
        # The entry itself still reads; the torn temp file is invisible.
        assert store.get(key) is not None
        assert list(store.keys()) == [key]
        assert store.backend.temp_files() == [torn]
        # A torn *entry* (crash during a non-atomic overwrite, or disk
        # corruption) reads as a miss rather than raising.
        store.path_for(key).write_text('{"format": 1, "stats"')
        assert store.get(key) is None
        assert store.misses >= 1

    def test_gc_reclaims_torn_temp_files(self, tmp_path):
        from repro.service.maintenance import collect_garbage

        store = ResultStore(tmp_path)
        key = store.put(
            Job("gzip", N), SimStats(cycles=1, committed=1), Provenance("run", 0.1, CODE_VERSION)
        )
        torn = store.path_for(key).parent / ".tmp-crashed.json"
        torn.write_text("{ half a document")
        report = collect_garbage(store.backend)
        assert report.tmp_removed == 1
        assert not torn.exists()
        assert store.get(key) is not None


class TestWorkerLoss:
    def test_worker_kill_raises_and_resumes(self, tmp_path, monkeypatch):
        from repro.campaign import scheduler

        store_root = tmp_path / "store"
        jobs = [Job("gzip", N), Job("ammp", N)]
        gzip_key = job_key(jobs[0])
        real_execute = scheduler.execute_job

        def killer(job):
            if job.workload == "ammp":
                # Die only after the sibling group's result is durably in
                # the store, so the resume assertion is deterministic.
                probe = ResultStore(store_root)
                for _ in range(600):
                    if gzip_key in probe:
                        break
                    time.sleep(0.05)
                os._exit(13)
            return real_execute(job)

        # Forked pool workers inherit the patched module global.
        monkeypatch.setattr(scheduler, "execute_job", killer)
        with pytest.raises(WorkerLostError):
            call_with_timeout(
                lambda: run_campaign(jobs, jobs_n=2, store=ResultStore(store_root)),
                60,
            )
        assert gzip_key in ResultStore(store_root)

        monkeypatch.setattr(scheduler, "execute_job", real_execute)
        resumed = run_campaign(jobs, jobs_n=2, store=ResultStore(store_root))
        assert resumed.store_hits == 1  # gzip came back from the store
        assert resumed.executed == 1  # only the killed group re-ran
        assert [r.job for r in resumed.results] == jobs


class TestConcurrentWriters:
    def test_same_key_two_processes_one_durable_entry(self, tmp_path):
        """Two processes racing to put the same key must leave exactly one
        well-formed entry (last rename wins; both wrote identical stats)."""
        job = Job("gzip", N)
        stats = SimStats(cycles=777, committed=N)
        barrier_dir = tmp_path / "ready"
        barrier_dir.mkdir()

        children = []
        for who in ("a", "b"):
            pid = os.fork()
            if pid == 0:  # child
                status = 1
                try:
                    (barrier_dir / who).touch()
                    # Crude two-process barrier: start writing together.
                    for _ in range(500):
                        if len(list(barrier_dir.iterdir())) == 2:
                            break
                    store = ResultStore(tmp_path / "store")
                    for _ in range(20):
                        store.put(job, stats, Provenance("run", 0.1, CODE_VERSION))
                    status = 0
                finally:
                    os._exit(status)
            children.append(pid)

        for pid in children:
            _, exit_status = os.waitpid(pid, 0)
            assert exit_status == 0

        store = ResultStore(tmp_path / "store")
        key = job_key(job)
        assert list(store.keys()) == [key]
        loaded = store.get(key)
        assert loaded is not None
        assert loaded[0].to_dict() == stats.to_dict()
        # No temp-file litter from either writer.
        assert store.backend.temp_files() == []

"""Tests for the service tier (repro.service).

The contract under test:

* both store backends answer the same (kind, key) -> document
  interface, with byte-fidelity on ``read_raw``;
* the sqlite index is derived state — corruption and drift are repaired
  by rebuild, and queries keep working;
* ``repro serve`` answers warm queries with **zero simulations**
  (counter-asserted), refuses cold/direct queries instead of simulating,
  and has no write route.
"""

import json
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.campaign import (
    CODE_VERSION,
    Job,
    Provenance,
    ResultStore,
    StoreMissError,
    campaign_context,
    job_spec,
    run_campaign,
)
from repro.core import SimStats
from repro.service.backends import (
    KIND_FUZZ,
    KIND_PROFILE,
    KIND_RESULT,
    DirectoryBackend,
    SqliteBackend,
    open_backend,
)
from repro.service.maintenance import collect_garbage, migrate_index
from repro.service.server import serve

N = 3000


def put_result(store, job, cycles=100):
    return store.put(
        job, SimStats(cycles=cycles, committed=50), Provenance("run", 1.0, CODE_VERSION)
    )


def stats_dicts(outcome):
    return [r.stats.to_dict() for r in outcome.results]


@contextmanager
def running_server(store):
    server = serve(store, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def http_get(url):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend_cls", [DirectoryBackend, SqliteBackend])
class TestBackendContract:
    """Dir and sqlite backends satisfy the same interface."""

    def test_read_write_contains_delete(self, tmp_path, backend_cls):
        backend = backend_cls(tmp_path)
        assert backend.read(KIND_RESULT, "ab" * 32) is None
        document = {"format": 1, "spec": {"workload": "gzip"}, "stats": {}}
        backend.write(KIND_RESULT, "ab" * 32, document)
        assert backend.contains(KIND_RESULT, "ab" * 32)
        assert backend.read(KIND_RESULT, "ab" * 32) == document
        assert backend.delete(KIND_RESULT, "ab" * 32)
        assert not backend.contains(KIND_RESULT, "ab" * 32)
        assert not backend.delete(KIND_RESULT, "ab" * 32)

    def test_kinds_do_not_collide(self, tmp_path, backend_cls):
        backend = backend_cls(tmp_path)
        key = "cd" * 32
        for kind in (KIND_RESULT, KIND_PROFILE, KIND_FUZZ):
            backend.write(kind, key, {"kind": kind})
        assert [backend.read(k, key)["kind"] for k in (KIND_RESULT, KIND_PROFILE, KIND_FUZZ)] == [
            "result", "profile", "fuzz",
        ]
        assert list(backend.keys(KIND_RESULT)) == [key]
        assert list(backend.keys(KIND_PROFILE)) == [key]
        assert list(backend.keys(KIND_FUZZ)) == [key]

    def test_read_raw_is_byte_faithful(self, tmp_path, backend_cls):
        backend = backend_cls(tmp_path)
        backend.write(KIND_RESULT, "ef" * 32, {"b": 2, "a": 1})
        raw = backend.read_raw(KIND_RESULT, "ef" * 32)
        assert raw == backend.path_for(KIND_RESULT, "ef" * 32).read_bytes()
        assert json.loads(raw) == {"a": 1, "b": 2}

    def test_entries_filtering(self, tmp_path, backend_cls):
        store = ResultStore(backend=backend_cls(tmp_path))
        for workload, model in (("gzip", "sie"), ("gzip", "die"), ("mcf", "sie")):
            put_result(store, Job(workload, N, model=model))
        backend = store.backend
        assert len(list(backend.entries(KIND_RESULT))) == 3
        gzip_only = list(backend.entries(KIND_RESULT, workload="gzip"))
        assert len(gzip_only) == 2 and all(m.workload == "gzip" for m in gzip_only)
        both = list(backend.entries(KIND_RESULT, workload="gzip", model="die"))
        assert len(both) == 1 and both[0].model == "die"
        assert both[0].n_insts == N and both[0].sampled is False

    def test_stats_and_clear(self, tmp_path, backend_cls):
        store = ResultStore(backend=backend_cls(tmp_path))
        put_result(store, Job("gzip", N))
        store.put_fuzz("aa" * 32, {"spec": {}})
        stats = store.stats()
        assert stats.entries[KIND_RESULT] == 1
        assert stats.entries[KIND_FUZZ] == 1
        assert stats.bytes[KIND_RESULT] > 0
        assert store.clear() == 1
        after = store.stats()
        assert after.total_entries == 0

    def test_sorted_key_listing(self, tmp_path, backend_cls):
        backend = backend_cls(tmp_path)
        keys = ["ff" * 32, "aa" * 32, "0b" * 32]
        for key in keys:
            backend.write(KIND_RESULT, key, {})
        assert list(backend.keys(KIND_RESULT)) == sorted(keys)


class TestResultStoreOverBackends:
    def test_round_trip_identical_across_backends(self, tmp_path):
        job = Job("gzip", N, model="die")
        stats = SimStats(cycles=123, committed=45)
        docs = {}
        for name, backend in (
            ("dir", DirectoryBackend(tmp_path / "d")),
            ("sqlite", SqliteBackend(tmp_path / "s")),
        ):
            store = ResultStore(backend=backend)
            key = store.put(job, stats, Provenance("run", 0.5, CODE_VERSION))
            got, provenance = store.get(key)
            assert got.cycles == 123 and provenance.source == "store"
            docs[name] = store.path_for(key).read_bytes()
        assert docs["dir"] == docs["sqlite"], "backends persist different bytes"

    def test_open_backend_dispatch(self, tmp_path):
        assert isinstance(open_backend(str(tmp_path)), DirectoryBackend)
        assert isinstance(open_backend(str(tmp_path), backend="sqlite"), SqliteBackend)
        with pytest.raises(ValueError, match="remote .* removed"):
            open_backend("http://x:1")
        with pytest.raises(ValueError, match="unknown backend"):
            open_backend(str(tmp_path), backend="s3")


class TestSqliteIndex:
    def test_index_rebuilt_on_corruption(self, tmp_path):
        backend = SqliteBackend(tmp_path)
        store = ResultStore(backend=backend)
        key = put_result(store, Job("gzip", N))
        backend._drop_connection()
        backend.index_path.write_bytes(b"this is not a sqlite database!!")
        assert list(backend.keys(KIND_RESULT)) == [key]  # transparent rebuild
        assert backend.stats().entries[KIND_RESULT] == 1

    def test_migrate_indexes_directory_store(self, tmp_path):
        # A store grown through the plain dir backend, then migrated.
        store = ResultStore(backend=DirectoryBackend(tmp_path))
        keys = sorted(
            put_result(store, Job("gzip", N, model=m)) for m in ("sie", "die")
        )
        assert migrate_index(tmp_path) == 2
        indexed = SqliteBackend(tmp_path)
        assert list(indexed.keys(KIND_RESULT)) == keys

    def test_migrate_repairs_drift(self, tmp_path):
        indexed = SqliteBackend(tmp_path)
        store = ResultStore(backend=indexed)
        put_result(store, Job("gzip", N))
        # Another process writes through a plain dir backend: index drifts.
        drifted = put_result(ResultStore(backend=DirectoryBackend(tmp_path)), Job("mcf", N))
        assert drifted not in list(indexed.keys(KIND_RESULT))
        migrate_index(tmp_path)
        assert drifted in list(SqliteBackend(tmp_path).keys(KIND_RESULT))

    def test_deletes_keep_index_in_step(self, tmp_path):
        backend = SqliteBackend(tmp_path)
        store = ResultStore(backend=backend)
        key = put_result(store, Job("gzip", N))
        backend.delete(KIND_RESULT, key)
        assert list(backend.keys(KIND_RESULT)) == []
        assert not backend.path_for(KIND_RESULT, key).exists()


class TestStoreOnly:
    def test_cold_store_only_raises_miss(self, tmp_path):
        with campaign_context(store=ResultStore(tmp_path), store_only=True):
            with pytest.raises(StoreMissError) as excinfo:
                run_campaign([Job("gzip", N), Job("gzip", N)])
        assert excinfo.value.missing == 2 and excinfo.value.total == 2

    def test_warm_store_only_answers_without_simulating(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = [Job("gzip", N)]
        run_campaign(jobs, store=store)
        with campaign_context(store=store, store_only=True) as context:
            outcome = run_campaign(jobs)
        assert outcome.store_hits == 1 and context.executed == 0


class TestStreaming:
    """Store-backed parallel campaigns hand back results as they finish;
    the outcome must still match a serial run, in submission order."""

    def test_byte_identical_to_serial(self, tmp_path):
        jobs = [
            Job("gzip", N, model="sie"),
            Job("gzip", N, model="die"),
            Job("ammp", N, model="sie"),
            Job("gzip", N, model="sie"),  # intra-batch duplicate
        ]
        serial = run_campaign(jobs, jobs_n=1, store=ResultStore(tmp_path / "a"))
        parallel = run_campaign(jobs, jobs_n=2, store=ResultStore(tmp_path / "b"))
        assert stats_dicts(serial) == stats_dicts(parallel)
        assert [r.job for r in parallel.results] == jobs
        assert parallel.executed == serial.executed == 3
        assert parallel.deduped == 1


class TestServe:
    def test_healthz_and_document_byte_fidelity(self, tmp_path):
        store = ResultStore(backend=SqliteBackend(tmp_path))
        key = put_result(store, Job("gzip", N))
        with running_server(store) as server:
            status, body = http_get(f"{server.url}/healthz")
            assert status == 200 and json.loads(body)["ok"] is True
            status, body = http_get(f"{server.url}/result/{key}")
            assert status == 200
            assert body == store.path_for(key).read_bytes()
            status, _ = http_get(f"{server.url}/result/{'0' * 64}")
            assert status == 404

    def test_entries_and_stats_routes(self, tmp_path):
        store = ResultStore(backend=SqliteBackend(tmp_path))
        put_result(store, Job("gzip", N, model="sie"))
        put_result(store, Job("gzip", N, model="die"))
        with running_server(store) as server:
            status, body = http_get(f"{server.url}/entries?kind=result&model=die")
            payload = json.loads(body)
            assert status == 200 and payload["count"] == 1
            assert payload["entries"][0]["model"] == "die"
            status, body = http_get(f"{server.url}/store/stats")
            stats = json.loads(body)
            assert stats["entries"]["result"] == 2
            assert stats["simulations_executed"] == 0

    def test_job_resolution_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        job = Job("gzip", N, model="die")
        key = put_result(store, job)
        with running_server(store) as server:
            request = urllib.request.Request(
                f"{server.url}/job",
                data=json.dumps(job_spec(job)).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                payload = json.loads(response.read())
            assert payload["key"] == key and payload["stored"] is True
            # An unknown spec resolves to a key but is not stored.
            other = json.dumps(job_spec(Job("mcf", N))).encode()
            request = urllib.request.Request(
                f"{server.url}/job", data=other, method="POST"
            )
            with urllib.request.urlopen(request) as response:
                payload = json.loads(response.read())
            assert payload["stored"] is False

    def test_warm_experiment_executes_zero_simulations(self, tmp_path):
        store = ResultStore(backend=SqliteBackend(tmp_path))
        from repro.experiments import get_experiment

        with campaign_context(store=store):
            get_experiment("F6").module.run(apps=("gzip",), n_insts=N)
        with running_server(store) as server:
            status, body = http_get(
                f"{server.url}/experiment/F6?apps=gzip&n={N}"
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["rows"] and payload["store_hits"] > 0
            status, replay = http_get(
                f"{server.url}/experiment/F6?apps=gzip&n={N}"
            )
            assert replay == body, "warm replay is not byte-identical"
            assert server.simulations_executed == 0
            _, stats_body = http_get(f"{server.url}/store/stats")
            assert json.loads(stats_body)["simulations_executed"] == 0

    def test_cold_experiment_is_409_not_a_simulation(self, tmp_path):
        store = ResultStore(tmp_path)
        with running_server(store) as server:
            status, body = http_get(f"{server.url}/experiment/F6?apps=gzip&n={N}")
            assert status == 409
            assert json.loads(body)["missing"] > 0
            assert server.simulations_executed == 0
            assert len(store) == 0, "cold query must not simulate/persist"

    def test_direct_experiments_refused(self, tmp_path):
        with running_server(ResultStore(tmp_path)) as server:
            for exp_id in ("T2", "F11"):
                status, body = http_get(f"{server.url}/experiment/{exp_id}")
                assert status == 400
                assert "live pipeline state" in json.loads(body)["error"]

    def test_put_is_501_and_store_unchanged(self, tmp_path):
        store = ResultStore(tmp_path)
        key = put_result(store, Job("gzip", N))
        before = store.path_for(key).read_bytes()
        with running_server(store) as server:
            request = urllib.request.Request(
                f"{server.url}/result/{key}", data=b"{}", method="PUT"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 501
        assert store.path_for(key).read_bytes() == before
        assert list(store.keys()) == [key]


class TestGarbageCollection:
    def test_gc_prunes_tmp_orphans_and_corruption(self, tmp_path):
        store = ResultStore(tmp_path)
        job = Job("gzip", N)
        key = put_result(store, job)
        # Orphaned profile: side-car whose parent result is gone.
        orphan = "ab" * 32
        store.backend.write(KIND_PROFILE, orphan, {"stats": {}})
        # Corrupt fuzz document + stale temp file.
        corrupt = "cd" * 32
        store.fuzz_path_for(corrupt).parent.mkdir(parents=True, exist_ok=True)
        store.fuzz_path_for(corrupt).write_text("{ torn")
        (tmp_path / key[:2] / ".tmp-crashed.json").write_text("{ torn")

        dry = collect_garbage(store.backend, dry_run=True)
        assert dry.total_removed == 3 and dry.dry_run
        assert store.get(key) is not None  # dry run removed nothing

        report = collect_garbage(store.backend)
        assert report.tmp_removed == 1
        assert report.orphan_profiles == 1
        assert report.corrupt[KIND_FUZZ] == 1
        assert report.bytes_reclaimed > 0
        assert store.get(key) is not None, "gc must keep live entries"
        assert list(store.backend.keys(KIND_PROFILE)) == []

    def test_gc_keeps_standalone_fuzz_documents(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_fuzz("ef" * 32, {"spec": {"n_insts": 10}})
        report = collect_garbage(store.backend)
        assert report.total_removed == 0
        assert store.get_fuzz("ef" * 32) is not None

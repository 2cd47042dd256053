"""The benchmark's three workloads, driven through the program's public API.

Each workload object is built once per process (its set-up), then asked
for ops ``op(0), op(1), ...`` in a fixed order, each followed by an
untimed ``check`` that returns the problems it found (empty when the op's
outputs are correct).

* ``f5-full``   — op *i* is a cold ``repro campaign F5`` over one
  (app, seed): ``APPS[i % 12]`` at seed ``S + i // 12``, 20k instructions,
  four timing-model jobs, rendered as the CLI renders it.
* ``f5-sampled``— the same ops with ``sampling=SamplingPlan()``, i.e.
  ``repro campaign F5 --sample``.
* ``serve-warm``— set-up regenerates the 15 stats-only experiments at
  500 instructions into a sqlite store and starts ``repro serve`` in a
  thread; an op is one closed-loop client replaying a fixed dashboard.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.campaign import (
    JobResult,
    ResultStore,
    campaign_context,
    job_key,
    job_spec,
    stats_to_dict,
)
from repro.experiments import EXPERIMENTS, get_experiment
from repro.sampling import SamplingPlan
from repro.service.backends import KIND_RESULT, open_backend
from repro.service.server import serve
from repro.workloads import APP_NAMES

from spans import Recorder

#: Instructions per F5 trace (one op = 4 jobs = 80k simulated instructions).
F5_INSTS = 20_000
#: F5 jobs per op: sie, die, die-2xALU, die-irb.
F5_JOBS = 4
#: Instructions per trace of the serve-warm store population.
SERVE_INSTS = 500

DIGESTS = Path(__file__).resolve().parent / "digests.json"
#: Workload seeds whose digests ``pin.py`` records in ``digests.json``.
PINNED_SEEDS = range(0, 21)


def stats_digest(results: Sequence[JobResult]) -> str:
    """Order-independent digest of every job's full ``SimStats``."""
    docs = sorted(
        json.dumps(stats_to_dict(result.stats), sort_keys=True) for result in results
    )
    return hashlib.sha256("\n".join(docs).encode("utf-8")).hexdigest()[:16]


def pinned_digests() -> Dict[str, Dict[str, str]]:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def stats_problems(result: JobResult, n_insts: int) -> List[str]:
    """Invariants every job's statistics satisfy, sampled or not."""
    stats, where = result.stats, f"{result.job.workload}/{result.job.model}"
    problems = []
    if stats.committed != n_insts:
        problems.append(f"{where}: committed {stats.committed} != {n_insts}")
    for name in ("check_mismatches", "recoveries", "faults_injected"):
        if getattr(stats, name):
            problems.append(f"{where}: {name} = {getattr(stats, name)}")
    if not stats.irb_reuse_hits <= stats.irb_pc_hits <= stats.irb_lookups:
        problems.append(f"{where}: IRB counters out of order")
    return problems


class F5Campaign:
    """``repro campaign F5 [--sample]``, one cold (app, seed) per op."""

    jobs = F5_JOBS
    n_insts = F5_INSTS
    #: The traced f5-sampled run re-simulates completed ops in full.
    keep_outputs = True

    def __init__(self, name: str, seed: int, tmp: Path, recorder: Recorder):
        # The recorder is unused: F5 ops cross only wrapped layer boundaries.
        self.name = name
        self.seed = seed
        self.experiment = get_experiment("F5")
        # `repro campaign` defaults to the directory backend.
        self.store = ResultStore(backend=open_backend(str(tmp / "store"), "dir"))
        self.plan = SamplingPlan() if name == "f5-sampled" else None
        self.pinned = pinned_digests().get(name, {})
        self.problems: List[str] = []  # set-up problems
        #: Checked ops whose (app, seed) has no pinned digest.
        self.unpinned = 0

    def op(self, i: int) -> dict:
        app, seed = APP_NAMES[i % len(APP_NAMES)], self.seed + i // len(APP_NAMES)
        results: List[JobResult] = []
        with campaign_context(
            jobs_n=1,
            store=self.store,
            progress=lambda done, total, result: results.append(result),
            sampling=self.plan,
        ) as context:
            table = self.experiment.module.run(apps=(app,), n_insts=F5_INSTS, seed=seed)
            text = table.render()
        return {"app": app, "seed": seed, "results": results, "text": text,
                "executed": context.executed}

    def check(self, out: dict) -> List[str]:
        problems = []
        if out["executed"] != F5_JOBS or len(out["results"]) != F5_JOBS:
            problems.append(
                f"expected {F5_JOBS} cold jobs, ran {out['executed']} "
                f"of {len(out['results'])}"
            )
        if out["app"] not in out["text"]:
            problems.append("rendered table lacks the app row")
        for result in out["results"]:
            problems += stats_problems(result, F5_INSTS)
        pinned = self.pinned.get(f"{out['app']}@{out['seed']}")
        if pinned is None:
            self.unpinned += 1
        elif stats_digest(out["results"]) != pinned:
            problems.append(f"SimStats digest differs from the pinned {pinned}")
        return problems

    def close(self) -> None:
        pass


#: The stats-only experiments (T2 and F11 read live pipeline state).
SERVE_EXPERIMENTS = tuple(e.id for e in EXPERIMENTS.values() if not e.direct)
#: GET /result/<key> requests per dashboard op.
RESULTS_PER_OP = 4


class ServeWarm:
    """Warm ``repro serve`` queries against a store populated in set-up."""

    jobs = 0
    n_insts = 0
    keep_outputs = False

    def __init__(self, name: str, seed: int, tmp: Path, recorder: Recorder):
        self.name = name
        self.seed = seed
        self.recorder = recorder
        self.store = ResultStore(backend=open_backend(str(tmp / "store"), "sqlite"))
        results: List[JobResult] = []
        self.rows: Dict[str, list] = {}
        with campaign_context(
            jobs_n=1,
            store=self.store,
            progress=lambda done, total, result: results.append(result),
        ) as context:
            for exp_id in SERVE_EXPERIMENTS:
                table = EXPERIMENTS[exp_id].module.run(
                    apps=APP_NAMES, n_insts=SERVE_INSTS, seed=seed
                )
                if exp_id in ("F2", "F5"):
                    # The server returns rows through JSON; compare alike.
                    self.rows[exp_id] = json.loads(json.dumps(table.rows(), default=str))
        self.problems: List[str] = []
        for result in results:
            self.problems += stats_problems(result, SERVE_INSTS)
        unique = {job_key(r.job): r for r in results}
        if context.executed != len(unique):
            self.problems.append(
                f"population ran {context.executed} jobs for {len(unique)} keys"
            )
        self.digest = stats_digest(list(unique.values()))
        self.pinned = pinned_digests().get(name, {}).get(str(seed))
        if self.pinned is not None and self.digest != self.pinned:
            self.problems.append(f"population digest differs from the pinned {self.pinned}")
        #: Checked ops answered from a population with no pinned digest.
        self.unpinned = 0
        self.keys = sorted(unique)
        self.specs = [json.dumps(job_spec(unique[key].job)) for key in self.keys]
        self.filters = sorted(
            {(meta.workload, meta.model) for meta in self.store.backend.entries(KIND_RESULT)}
        )
        self.server = serve(self.store, port=0)
        self.host, self.port = self.server.server_address[:2]
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def _request(self, route: str, method: str, path: str, body: Optional[str] = None):
        with self.recorder.span("service.route." + route):
            connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
            try:
                connection.request(method, path, body=body)
                response = connection.getresponse()
                return route, path, response.status, response.read()
            finally:
                connection.close()

    def op(self, i: int) -> dict:
        query = f"?n={SERVE_INSTS}&seed={self.seed}"
        responses = [
            self._request("experiment_f2", "GET", "/experiment/F2" + query),
            self._request("experiment_f5", "GET", "/experiment/F5" + query),
        ]
        for j in range(RESULTS_PER_OP):
            key = self.keys[(i * RESULTS_PER_OP + j) % len(self.keys)]
            responses.append(self._request("result", "GET", f"/result/{key}"))
        workload, model = self.filters[i % len(self.filters)]
        responses.append(
            self._request("entries", "GET", f"/entries?workload={workload}&model={model}")
        )
        responses.append(self._request("stats", "GET", "/store/stats"))
        job = i % len(self.keys)
        responses.append(self._request("job", "POST", "/job", body=self.specs[job]))
        return {"i": i, "responses": responses}

    def check(self, out: dict) -> List[str]:
        # Answers served from a store that failed its checks are wrong too.
        problems = ["the store population failed its set-up checks"] if self.problems else []
        if self.pinned is None:
            self.unpinned += 1
        i = out["i"]
        for route, path, status, body in out["responses"]:
            if not 200 <= status < 300:
                problems.append(f"{path}: HTTP {status} {body[:200]!r}")
                continue
            if route == "result":
                key = path.rsplit("/", 1)[1]
                if body != self.store.backend.read_raw(KIND_RESULT, key):
                    problems.append(f"{path}: bytes differ from the store's")
                continue
            payload = json.loads(body)
            if route.startswith("experiment_"):
                exp_id = payload.get("id")
                if payload.get("rows") != self.rows.get(exp_id):
                    problems.append(f"{path}: rows differ from set-up's")
            elif route == "entries":
                workload, model = self.filters[i % len(self.filters)]
                expected = len(list(
                    self.store.backend.entries(KIND_RESULT, workload=workload, model=model)
                ))
                if payload.get("count") != expected or expected == 0:
                    problems.append(f"{path}: {payload.get('count')} entries, expected {expected}")
            elif route == "stats":
                if payload.get("simulations_executed") != 0:
                    problems.append(
                        f"server ran {payload.get('simulations_executed')} simulations"
                    )
            elif route == "job":
                key = self.keys[i % len(self.keys)]
                if payload.get("key") != key or payload.get("stored") is not True:
                    problems.append(f"POST /job resolved {payload.get('key')}, expected {key}")
        return problems

    def simulations_executed(self) -> int:
        return self.server.simulations_executed

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)


WORKLOADS = {"f5-full": F5Campaign, "f5-sampled": F5Campaign, "serve-warm": ServeWarm}

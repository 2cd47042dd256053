"""Every experiment's jobs keep their content keys and canonical specs.

``tests/test_job_keys.py`` pins four literal keys.  This file pins, in
two digests, the keys and the canonical ``job_spec`` JSON of every job
that every store-backed experiment builds at ``n_insts=500, seed=1``,
full and sampled, plus one fault-plan job: the specs a warm ``repro
serve`` dashboard and a campaign store look results up by.  The jobs are
collected by a spy on ``run_campaign``, so nothing is simulated.  Update
the pins only together with a deliberate key change (a ``CODE_VERSION``
bump or a config field), never to absorb a canonicalisation change.
"""

from __future__ import annotations

import hashlib
import json
from typing import List

import pytest

from repro.campaign import Job, campaign_context, job_key, job_spec
from repro.campaign.keys import canonical
from repro.experiments import common
from repro.experiments.registry import EXPERIMENTS
from repro.isa import FUClass
from repro.redundancy import Fault
from repro.sampling import SamplingPlan

#: sha256 of the sorted keys, one per line.
KEYS_DIGEST = "6e74dddfa3b0e6d983b3c1742a7f8b28036b6fa3e29314879c0237ee219996cf"
#: sha256 of the specs' compact sorted-key JSON list, in collection order.
SPECS_DIGEST = "83f8d8c152b6cbc8532ad19bb5f3f29e6aee1d2f3f9a61539bc5e2f24df5d102"
#: Jobs collected: 2 plans x the store-backed experiments, plus the fault job.
N_JOBS = 1489


class _Collected(Exception):
    """Raised by the spy once an experiment has submitted its batch."""


def experiment_jobs() -> List[Job]:
    """Every job of every store-backed experiment, plus one fault plan.

    Each experiment submits one ``run_campaign`` batch (through
    ``common.build_table``); the spy records it and stops the run there.
    """
    jobs: List[Job] = []

    def spy(batch):
        jobs.extend(batch)
        raise _Collected

    real = common.run_campaign
    common.run_campaign = spy
    try:
        for plan in (None, SamplingPlan()):
            for exp_id in sorted(EXPERIMENTS):
                experiment = EXPERIMENTS[exp_id]
                if experiment.direct:
                    continue
                with campaign_context(sampling=plan):
                    try:
                        experiment.module.run(n_insts=500, seed=1)
                    except _Collected:
                        pass
    finally:
        common.run_campaign = real
    jobs.append(Job("gzip", 500, model="die", faults=(Fault("exec_dup", seq=250),)))
    return jobs


@pytest.fixture(scope="module")
def jobs() -> List[Job]:
    return experiment_jobs()


def test_every_experiment_job_key_is_pinned(jobs):
    assert len(jobs) == N_JOBS
    keys = "\n".join(sorted(job_key(job) for job in jobs))
    assert hashlib.sha256(keys.encode()).hexdigest() == KEYS_DIGEST


def test_every_experiment_job_spec_is_pinned(jobs):
    specs = json.dumps(
        [job_spec(job) for job in jobs], sort_keys=True, separators=(",", ":")
    )
    assert hashlib.sha256(specs.encode()).hexdigest() == SPECS_DIGEST


def test_equal_jobs_of_different_spelling_keep_their_own_keys():
    # Job(seed=1) == Job(seed=1.0) and both hash alike, but their specs
    # differ; a per-value memo would key the second like the first.
    as_int, as_float = Job("gzip", 500, seed=1), Job("gzip", 500, seed=1.0)
    assert as_int == as_float and hash(as_int) == hash(as_float)
    first = (job_key(as_int), job_key(as_float))
    assert first[0] != first[1]
    assert (job_key(as_float), job_key(as_int)) == first[::-1]


def test_canonical_rules():
    assert canonical(FUClass.INT_ALU) == "INT_ALU"
    assert canonical({2: (1, 2.5), "10": None}) == {"10": None, "2": [1, 2.5]}
    assert canonical(Fault("exec_dup", seq=3)) == {
        "__type__": "Fault", "kind": "exec_dup", "seq": 3, "cycle": 0, "pc": -1,
    }
    with pytest.raises(TypeError):
        canonical(Fault)  # a dataclass type, not an instance
    with pytest.raises(TypeError):
        canonical({1, 2})

"""Pinned content keys: a change to ``job_key`` is always deliberate.

``job_key`` salts the canonical job spec with ``CODE_VERSION``; the store
finds a result only under the exact key it was written with.  These
literal digests pin the keys of a few representative specs, so any change
to spec canonicalisation, to a config dataclass's fields or defaults, or
to the salt shows up here, not as a silent store-wide miss (or, worse, a
hit on results computed by older code).  Update a pin only together with
the change that moves it.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.campaign import Job, job_key
from repro.experiments.fig2_resources import config_for
from repro.reuse import IRBConfig
from repro.sampling import SamplingPlan

PINNED_JOBS: Dict[str, Job] = {
    # The plainest spec: default model (sie), machine and seed.
    "sie/gzip": Job(workload="gzip", n_insts=20_000),
    # A non-default IRB: every field of the nested config is hashed.
    "die-irb/gzip/irb-512x2-ctr": Job(
        workload="gzip", n_insts=20_000, model="die-irb",
        irb_config=IRBConfig(entries=512, ways=2, replacement="ctr"),
    ),
    # F5's DIE-2xALU bound: a scaled MachineConfig on the plain DIE model.
    "die/art/DIE-2xALU": Job(
        workload="art", n_insts=20_000, model="die",
        config=config_for("DIE-2xALU"),
    ),
    # A sampled F5 job (`repro campaign F5 --sample`).
    "die-irb/ammp/sampled": Job(
        workload="ammp", n_insts=20_000, seed=2, model="die-irb",
        sampling=SamplingPlan(),
    ),
}

PINS: Dict[str, str] = {
    "sie/gzip":
        "8de1ddb4ee19597c0a150c73b4fa555deae3cc47ea7bc2ca8da6db53279f7d49",
    "die-irb/gzip/irb-512x2-ctr":
        "0a9286e6624d2ff5e65073c3d8a4d986317692988092685f906a8c42e09e127e",
    "die/art/DIE-2xALU":
        "45c75bfb4c078bc635d4358f676b731c117c32eb42b3c28d98d1aef629630edc",
    "die-irb/ammp/sampled":
        "46cd41a5cf3e526e62532e2dcad901f67b80df1cd93ea38a5242a5d7c327372f",
}


def test_every_job_is_pinned():
    assert sorted(PINS) == sorted(PINNED_JOBS)


@pytest.mark.parametrize("name", sorted(PINNED_JOBS))
def test_job_key_is_pinned(name):
    assert job_key(PINNED_JOBS[name]) == PINS[name]

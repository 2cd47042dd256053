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
        "731af6ea82ed67dcd715371a3798069af63980039cd7d1ddb9f0c52604f6be85",
    "die-irb/gzip/irb-512x2-ctr":
        "1bf588ec45779a78af5e992d78e5d5582cea0744e34ed40535983dca286686f2",
    "die/art/DIE-2xALU":
        "aa5828886bccf5444a2ee58bcdfeee4108e95280ea07922bedb8c75c40d2bd90",
    "die-irb/ammp/sampled":
        "e125c7831786f0c0df1dc660bce5c6ef99f4903f9e0ff69682b3e21015d1b494",
}


def test_every_job_is_pinned():
    assert sorted(PINS) == sorted(PINNED_JOBS)


@pytest.mark.parametrize("name", sorted(PINNED_JOBS))
def test_job_key_is_pinned(name):
    assert job_key(PINNED_JOBS[name]) == PINS[name]

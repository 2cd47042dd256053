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
        "43b7dd640404adfe7aa56b2d87ebd20fa5845a80971cbebe8b9cd8212b8919ea",
    "die-irb/gzip/irb-512x2-ctr":
        "08280186bb72d5e59b67e8585c558b19db50d16c7e55c04a8e60c0c63a3fd07f",
    "die/art/DIE-2xALU":
        "2955c5ae8eddb6db117efec369b9f39b327e94266f8b6f9eae7bf07de2dda4f3",
    "die-irb/ammp/sampled":
        "0abbe035c00192af931ce273b8c50e201d4ec7ce6ca77afa63b238513784b4f5",
}


def test_every_job_is_pinned():
    assert sorted(PINS) == sorted(PINNED_JOBS)


@pytest.mark.parametrize("name", sorted(PINNED_JOBS))
def test_job_key_is_pinned(name):
    assert job_key(PINNED_JOBS[name]) == PINS[name]

"""Golden experiment outputs: pinned digests of every artifact's tables.

Each case runs one registered experiment at a small scale and reduces
what a user sees — the ``render()`` text and the JSON form of
``rows()`` — to a SHA-256 digest.  ``tests/fixtures/golden_experiments.json``
holds the digests.  A refactor of the experiment layer must leave every
one unchanged; a change to the simulator that moves them also moves
``tests/test_golden_stats.py``.

Regenerate the fixture from the repository root with::

    PYTHONPATH=src:tests python -c "import test_golden_experiments as g; g.regenerate()"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.campaign import campaign_context
from repro.experiments import EXPERIMENTS
from repro.sampling import SamplingPlan

FIXTURE = Path(__file__).parent / "fixtures" / "golden_experiments.json"

APPS = ("gzip", "ammp")
N_INSTS = 2_000


def digest(result) -> str:
    """SHA-256 of an experiment's rendered table plus its JSON rows."""
    blob = result.render() + "\n" + json.dumps(result.rows(), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def experiment_case(exp_id: str) -> Callable[[], object]:
    module = EXPERIMENTS[exp_id].module
    if exp_id == "T1":
        return module.run
    if exp_id == "F11":
        return lambda: module.run(apps=("gzip",), n_insts=N_INSTS, faults_per_kind=1)
    return lambda: module.run(apps=APPS, n_insts=N_INSTS)


def sampled_f5() -> object:
    with campaign_context(sampling=SamplingPlan()):
        return EXPERIMENTS["F5"].module.run(apps=APPS, n_insts=N_INSTS)


CASES: Dict[str, Callable[[], object]] = {
    **{exp_id: experiment_case(exp_id) for exp_id in EXPERIMENTS},
    "F5/sampled": sampled_f5,
}


def regenerate() -> None:
    """Rewrite the fixture from the current tree."""
    pins = {name: digest(case()) for name, case in sorted(CASES.items())}
    FIXTURE.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def pins() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pins):
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(pins, name):
    assert digest(CASES[name]()) == pins[name]

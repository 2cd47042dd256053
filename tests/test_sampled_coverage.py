"""Every counter a model counts in a full run survives sampled extrapolation.

Sampled runs rebuild ``SimStats`` from telemetry events (fetch, dispatch,
issue, check and IRB events), so a counter a model increments without
emitting its event extrapolates to 0.  At full budget
(``SamplingPlan(budget=1.0)``) every interval is measured, so each
counter that is nonzero in the full run must come back nonzero and
close to its full-run value, for every registered model.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Tuple

import pytest

from repro.core import SimStats
from repro.sampling import SamplingPlan, run_sampled
from repro.sampling.extrapolate import SAMPLED_ONLY_FIELDS
from repro.simulation import MODELS, get_trace, simulate

N = 3_000

#: Largest relative error allowed between a full-run counter and its
#: full-budget sampled estimate.  On gzip at 3k instructions the worst
#: covered counter is off by 1.1% (DIE-IRB ``irb_writes``); a counter
#: with no event behind it is off by 100%.
TOLERANCE = 0.05

#: Counters whose sampled estimate is known wrong, with the reason.
KNOWN_GAPS = {
    ("sie-irb", "irb_writes"): "IRB_WRITE is emitted when an install is queued",
    ("sie-irb", "irb_write_drops"): "nothing emits IRB_WRITE_DROP",
}

_RUNS: Dict[str, Tuple[SimStats, SimStats]] = {}


def _full_and_sampled(model: str) -> Tuple[SimStats, SimStats]:
    if model not in _RUNS:
        trace = get_trace("gzip", N)
        _RUNS[model] = (
            simulate(trace, model).stats,
            run_sampled(trace, SamplingPlan(budget=1.0), model=model).stats,
        )
    return _RUNS[model]


def _counters(stats: SimStats) -> Dict[str, float]:
    """Every scalar counter, plus one entry per FU class of the dicts."""
    out: Dict[str, float] = {}
    for f in fields(SimStats):
        if f.name in SAMPLED_ONLY_FIELDS:
            continue
        value = getattr(stats, f.name)
        if isinstance(value, dict):
            for fu, count in value.items():
                out[f"{f.name}[{fu.name}]"] = count
        else:
            out[f.name] = value
    return out


def _error(model: str, name: str) -> float:
    full, sampled = (_counters(s) for s in _full_and_sampled(model))
    return abs(sampled.get(name, 0) - full[name]) / full[name]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_full_budget_sample_covers_every_counter(model):
    full = _counters(_full_and_sampled(model)[0])
    measured = [name for name, value in full.items() if value]
    assert "committed" in measured and "cycles" in measured
    off = {
        name: f"{_error(model, name):.1%}"
        for name in measured
        if (model, name) not in KNOWN_GAPS and _error(model, name) > TOLERANCE
    }
    assert not off, f"{model}: sampled counters off by more than {TOLERANCE:.0%}: {off}"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 'Next benchmark change': the IRB_WRITE fault "
    "(writes counted when queued, drops never emitted)",
)
@pytest.mark.parametrize("model, name", sorted(KNOWN_GAPS))
def test_full_budget_sample_covers_irb_writes(model, name):
    assert _error(model, name) <= TOLERANCE

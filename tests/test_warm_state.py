"""Shared functional warm state and the on-demand phase map.

Warm state depends only on the trace, the hierarchy configuration and
the predictor kind, so ``core.pipeline.warm_structures`` replays a trace
once and hands every pipeline its own copies.  These tests check that
the sharing is invisible: a job's statistics never depend on which jobs
ran before it in the process.  The phase map only colours reports, so a
sampled run without a tracer must never cluster for it.
"""

import dataclasses

import pytest

from repro.core import MachineConfig
from repro.core import pipeline as pipeline_module
from repro.memory import DRAMConfig, HierarchyConfig
from repro.sampling import SamplingPlan, phase_of, regions, run_sampled
from repro.simulation import MODELS, get_trace, simulate
from repro.simulation.runner import make_pipeline
from repro.telemetry import RecordingTracer
from repro.telemetry.events import PhaseEvent
from repro.workloads import load_workload

N = 3_000


@pytest.fixture
def empty_memo(monkeypatch):
    """Empties the warm-state memo now; call the result to empty it again."""

    def clear():
        monkeypatch.setattr(pipeline_module, "_WARM", (None, None, {}))

    clear()
    return clear


def _stats(trace, model, sampled, config=None):
    if sampled:
        result = run_sampled(trace, SamplingPlan(), model=model, config=config)
    else:
        result = simulate(trace, model, config=config)
    return result.stats.to_dict()


@pytest.mark.parametrize("sampled", [False, True], ids=["full", "sampled"])
def test_back_to_back_jobs_match_an_empty_memo(empty_memo, sampled):
    trace = get_trace("mcf", N)
    shared = {model: _stats(trace, model, sampled) for model in MODELS}
    for model in MODELS:
        empty_memo()
        assert _stats(trace, model, sampled) == shared[model], model


def _scramble(pipeline):
    """Drive a pipeline's warm structures far from their warm state."""
    for addr in range(0, 1 << 20, 64):
        pipeline.hier.load(addr, 0)
        pipeline.hier.fetch(addr + (1 << 24), 0)
    for pc in range(0x1000, 0x3000, 4):
        predicted = pipeline.predictor.predict(pc)
        pipeline.predictor.update(pc, not predicted, predicted)
        pipeline.btb.update(pc, pc + 64)


@pytest.mark.parametrize("sampled", [False, True], ids=["full", "sampled"])
def test_driving_a_warmed_pipeline_leaves_the_next_job_alone(
    empty_memo, sampled
):
    trace = get_trace("gzip", N)
    expected = _stats(trace, "die", sampled)
    start = regions.select_regions(trace, SamplingPlan()).sites[-1].start
    for model in ("sie", "die-irb"):
        pipeline = make_pipeline(model, trace, None, None)
        if sampled:
            pipeline.warm_up(trace, start)
        else:
            pipeline.warm_up()
        for snapshot in pipeline_module._WARM[2].values():
            assert pipeline.hier is not snapshot[0]
            assert pipeline.predictor is not snapshot[1]
            assert pipeline.btb is not snapshot[2]
        pipeline.run()
        _scramble(pipeline)
        assert _stats(trace, "die", sampled) == expected


def test_other_hierarchy_or_predictor_misses_the_memo(empty_memo):
    trace = get_trace("gzip", N)
    base = MachineConfig.baseline()
    slow_dram = HierarchyConfig(dram=DRAMConfig(latency=300))
    variants = (
        dataclasses.replace(base, hierarchy=slow_dram),
        dataclasses.replace(base, predictor="bimodal"),
    )
    baseline = _stats(trace, "die", False, base)
    for config in variants:
        empty_memo()
        cold = _stats(trace, "die", False, config)
        assert cold != baseline  # the variant changes the outcome
        empty_memo()
        _stats(trace, "die", False, base)  # the memo now holds the baseline
        assert _stats(trace, "die", False, config) == cold
        hier, predictor, _ = pipeline_module.warm_structures(trace, config)
        assert hier.config == config.hierarchy
        assert pipeline_module._WARM[1] == (config.hierarchy, config.predictor)


def test_phase_map_is_built_only_for_a_tracer(monkeypatch):
    trace = load_workload("gzip", N)  # a fresh object: nothing memoized
    calls = []
    real = regions.select_k

    def counting(points, k_max, seed, k_fixed=0):
        calls.append(k_fixed)
        return real(points, k_max, seed, k_fixed)

    monkeypatch.setattr(regions, "select_k", counting)
    run_sampled(trace, SamplingPlan(), model="die")
    assert calls and 0 not in calls  # the ensemble's fixed-k clusterings only
    calls.clear()
    recorder = RecordingTracer()
    sampled = run_sampled(trace, SamplingPlan(), model="die", tracer=recorder)
    assert calls == [0]  # selection was memoized; one BIC scan for the map
    phases = [e.phase for e in recorder.events if isinstance(e, PhaseEvent)]
    assert phases == [
        phase_of(trace)[r.region.index] for r in sampled.region_results
    ]
    calls.clear()
    run_sampled(trace, SamplingPlan(), model="die", tracer=RecordingTracer())
    assert calls == []  # the map is memoized on the trace

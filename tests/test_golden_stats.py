"""Golden statistics: pinned digests of what every timing model produces.

Each case below runs the simulator and reduces its observable output —
``SimStats``, fault-injection outcomes, the cycle each fault landed on,
deadlock messages, telemetry timelines — to a SHA-256 digest of its
canonical JSON form.  ``tests/fixtures/golden_stats.json`` holds the
digests; a change to the core that moves any of them changes what the
simulator reports, and must either be fixed or regenerate the fixture
deliberately (and bump ``CODE_VERSION`` so stored results are not
replayed).

Regenerate the fixture from the repository root with::

    PYTHONPATH=src:tests python -c "import test_golden_stats as g; g.regenerate()"
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.core import DeadlockError
from repro.isa import Opcode, int_reg
from repro.redundancy import EXEC_PRIMARY, Fault, FaultInjector
from repro.redundancy.faults import IRB_ENTRY
from repro.simulation import MODELS, get_trace, simulate
from repro.telemetry import MetricsCollector, RecordingTracer, TeeTracer
from repro.telemetry.events import CycleEvent, FaultEvent
from repro.workloads.executor import FunctionalExecutor

from helpers import addi, assemble

FIXTURE = Path(__file__).parent / "fixtures" / "golden_stats.json"

N_INSTS = 2_500

R1, R2, R3 = int_reg(1), int_reg(2), int_reg(3)


def digest(payload: object) -> str:
    """SHA-256 of ``payload``'s canonical JSON encoding."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def repetitive_trace(iterations: int = 40):
    """A loop whose body repeats operand values every iteration."""
    ops = [addi(R1, 0, 5), addi(R2, 0, 7), (Opcode.ADD, R3, R1, R2, 0)]
    program = assemble(ops)  # + JUMP back: 4 insts per iteration
    return FunctionalExecutor(program).run(4 * iterations)


def stats_case(model: str, app: str) -> Callable[[], object]:
    return lambda: simulate(get_trace(app, N_INSTS), model).stats.to_dict()


def exec_fault_case(model: str) -> Callable[[], object]:
    def run() -> object:
        injector = FaultInjector([Fault(kind=EXEC_PRIMARY, seq=700)])
        result = simulate(
            get_trace("gzip", N_INSTS), model, fault_injector=injector
        )
        return [result.stats.to_dict(), injector.log.injected,
                injector.log.latent]

    return run


def irb_fault_case() -> object:
    # IRB_ENTRY faults are armed by cycle: the FaultEvent list pins the
    # exact cycle each strike resolved on, not just the aggregate stats.
    injector = FaultInjector([Fault(kind=IRB_ENTRY, pc=8, cycle=30)])
    tracer = RecordingTracer()
    result = simulate(
        repetitive_trace(), "die-irb", fault_injector=injector, tracer=tracer
    )
    events = [
        dataclasses.asdict(event)
        for event in tracer.events
        if isinstance(event, FaultEvent)
    ]
    return [result.stats.to_dict(), injector.log.injected,
            injector.log.latent, events]


def deadlock_case(model: str) -> Callable[[], object]:
    def run() -> object:
        with pytest.raises(DeadlockError) as excinfo:
            simulate(get_trace("gzip", N_INSTS), model, max_cycles=300)
        return str(excinfo.value)

    return run


def telemetry_case() -> object:
    recorder, collector = RecordingTracer(), MetricsCollector()
    simulate(
        get_trace("equake", N_INSTS), "die-irb",
        tracer=TeeTracer(recorder, collector),
    )
    cycles = [
        dataclasses.astuple(event)
        for event in recorder.events
        if isinstance(event, CycleEvent)
    ]
    return [cycles, collector.snapshot()]


CASES: Dict[str, Callable[[], object]] = {
    **{
        f"stats/{app}/{model}": stats_case(model, app)
        for model in sorted(MODELS)
        for app in ("gzip", "equake")
    },
    "fault/exec_primary/die": exec_fault_case("die"),
    "fault/exec_primary/srt": exec_fault_case("srt"),
    "fault/irb_entry/die-irb": irb_fault_case,
    **{
        f"deadlock/{model}": deadlock_case(model)
        for model in ("sie", "die-irb", "srt")
    },
    "telemetry/equake/die-irb": telemetry_case,
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

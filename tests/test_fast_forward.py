"""Run identity under observation: tracers never change what a run reports.

Every statistic a run produces — cycle counts, fault outcomes, the cycle
each fault resolved on, telemetry timelines — must be identical whether
or not a tracer is attached, and whether a tracer observes the run alone
or through a ``TeeTracer`` next to another.  The pipeline steps every
cycle, so the ``CycleEvent`` stream holds exactly one sample per cycle.
(The module name dates from when these checks compared runs with and
without a quiescent-cycle fast-forward; ``test_golden_stats`` pins the
outputs themselves.)
"""

from __future__ import annotations

from repro.isa import Opcode, int_reg
from repro.redundancy import Fault, FaultInjector
from repro.redundancy.faults import IRB_ENTRY
from repro.simulation import get_trace, simulate
from repro.telemetry import MetricsCollector, RecordingTracer, TeeTracer
from repro.telemetry.events import CycleEvent, FaultEvent

from helpers import addi, assemble
from repro.workloads.executor import FunctionalExecutor

N_INSTS = 2_500

R1, R2, R3 = int_reg(1), int_reg(2), int_reg(3)


def repetitive_trace(iterations=40):
    """A loop whose body repeats operand values every iteration."""
    ops = [addi(R1, 0, 5), addi(R2, 0, 7), (Opcode.ADD, R3, R1, R2, 0)]
    program = assemble(ops)  # + JUMP back: 4 insts per iteration
    return FunctionalExecutor(program).run(4 * iterations)


def irb_fault_run(tracer=None):
    """die-irb on the repetitive loop with one cycle-armed IRB strike."""
    injector = FaultInjector([Fault(kind=IRB_ENTRY, pc=8, cycle=30)])
    kwargs = {} if tracer is None else {"tracer": tracer}
    result = simulate(
        repetitive_trace(), "die-irb", fault_injector=injector, **kwargs
    )
    return result.stats.to_dict(), injector.log.injected, injector.log.latent


class TestFaultIdentity:
    """Fault outcomes do not depend on who is watching."""

    def test_irb_cell_fault_identical(self):
        # IRB_ENTRY faults are armed by *cycle*: a traced run must land
        # the strike on the same cycle as an untraced one.
        plain = irb_fault_run()
        traced = irb_fault_run(RecordingTracer())
        assert plain[0]["check_mismatches"] >= 1
        assert plain == traced

    def test_fault_event_cycles_identical(self):
        # The FaultEvent stream pins the exact cycle each fault resolved;
        # it must not move when the recorder shares the run with a
        # metrics collector, and it cannot precede the armed cycle.
        alone = RecordingTracer()
        irb_fault_run(alone)
        teed = RecordingTracer()
        irb_fault_run(TeeTracer(teed, MetricsCollector()))
        streams = [
            [event for event in recorder.events if isinstance(event, FaultEvent)]
            for recorder in (alone, teed)
        ]
        assert streams[0]
        assert all(event.cycle >= 30 for event in streams[0])
        assert streams[0] == streams[1]


class TestTelemetryIdentity:
    """Tracers observe the same event stream and never perturb the run."""

    def test_cycle_event_stream_identical(self):
        trace = get_trace("equake", N_INSTS)
        alone = RecordingTracer()
        result = simulate(trace, "die", tracer=alone)
        teed = RecordingTracer()
        simulate(trace, "die", tracer=TeeTracer(teed, MetricsCollector()))
        streams = [
            [event for event in recorder.events if isinstance(event, CycleEvent)]
            for recorder in (alone, teed)
        ]
        # One occupancy sample per simulated cycle, none skipped.
        cycles = [event.cycle for event in streams[0]]
        assert cycles == list(range(cycles[0], cycles[0] + len(cycles)))
        assert len(cycles) == result.stats.cycles
        assert streams[0] == streams[1]

    def test_metrics_snapshot_identical(self):
        trace = get_trace("equake", N_INSTS)
        alone = MetricsCollector()
        simulate(trace, "die-irb", tracer=alone)
        teed = MetricsCollector()
        simulate(trace, "die-irb", tracer=TeeTracer(RecordingTracer(), teed))
        assert alone.snapshot() == teed.snapshot()

    def test_tracer_does_not_change_stats(self):
        trace = get_trace("gzip", N_INSTS)
        plain = simulate(trace, "die")
        traced = simulate(trace, "die", tracer=RecordingTracer())
        assert plain.stats.to_dict() == traced.stats.to_dict()

"""Directed tests for squash/rewind state hygiene."""

from repro.core import OOOPipeline
from repro.isa import int_reg
from repro.redundancy import DIEPipeline, Fault, FaultInjector
from repro.redundancy.faults import EXEC_DUP, EXEC_PRIMARY
from repro.simulation import simulate
from repro.telemetry import CheckEvent, RecordingTracer

from helpers import addi, straightline

R1 = int_reg(1)


def long_trace(n=40):
    return straightline([addi(int_reg(1 + (i % 8)), 0, i) for i in range(n)])


class TestSquashState:
    def test_squash_clears_all_queues(self):
        trace = long_trace()
        pipeline = OOOPipeline(trace)
        pipeline.warm_up()  # cold I-cache would stall the early cycles
        # run a few cycles to populate state
        for _ in range(8):
            pipeline._step()
        assert pipeline.ruu or pipeline.decode_q
        pipeline.squash_and_refetch(0)
        assert not pipeline.ruu
        assert not pipeline.decode_q
        assert not any(pipeline._lanes)
        assert not pipeline.mem_queue
        assert pipeline.lsq_count == 0
        assert pipeline.fetch_index == 0

    def test_squashed_events_are_inert(self):
        trace = long_trace()
        pipeline = OOOPipeline(trace)
        for _ in range(8):
            pipeline._step()
        pipeline.squash_and_refetch(0)
        # Whatever events were in flight, the run must still finish
        # and commit the full trace exactly once.
        stats = pipeline.run()
        assert stats.committed == len(trace)

    def test_refetch_pays_redirect_penalty(self):
        trace = long_trace()
        pipeline = OOOPipeline(trace)
        for _ in range(8):
            pipeline._step()
        before = pipeline.cycle
        pipeline.squash_and_refetch(0)
        assert pipeline.fetch_resume_cycle > before


class TestRecoveryCorrectness:
    def test_multiple_recoveries_still_deterministic(self):
        trace = long_trace()
        faults = [Fault(kind=EXEC_PRIMARY, seq=10), Fault(kind=EXEC_DUP, seq=25)]

        def run():
            injector = FaultInjector(list(faults))
            return simulate(trace, "die", fault_injector=injector).stats

        first, second = run(), run()
        assert first.cycles == second.cycles
        assert first.recoveries == second.recoveries == 2

    def test_recovery_at_first_instruction(self):
        trace = long_trace()
        injector = FaultInjector([Fault(kind=EXEC_PRIMARY, seq=0)])
        result = simulate(trace, "die", fault_injector=injector)
        assert result.stats.recoveries == 1
        assert result.stats.committed == len(trace)

    def test_recovery_at_last_instruction(self):
        trace = long_trace()
        injector = FaultInjector([Fault(kind=EXEC_PRIMARY, seq=len(trace) - 1)])
        result = simulate(trace, "die", fault_injector=injector)
        assert result.stats.recoveries == 1
        assert result.stats.committed == len(trace)

    def test_die_recovery_preserves_pair_structure(self):
        trace = long_trace()
        injector = FaultInjector([Fault(kind=EXEC_PRIMARY, seq=20)])
        pipeline = DIEPipeline(trace)
        pipeline.fault_injector = injector
        checks = RecordingTracer()
        pipeline.tracer = checks
        stats = pipeline.run()
        # Re-executed instructions are re-checked: total checks exceed
        # the trace length by the replayed suffix.
        assert stats.pairs_checked == len(trace)
        verdicts = [e.ok for e in checks.events if isinstance(e, CheckEvent)]
        assert len(verdicts) > len(trace)
        assert verdicts.count(False) == 1

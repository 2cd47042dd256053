"""Directed tests for Dual Instruction Execution (DIE)."""

import pytest

from repro.core import DUPLICATE, DynInst, MachineConfig, PRIMARY
from repro.isa import Opcode, int_reg
from repro.redundancy import CommitChecker, DIEPipeline, Fault, FaultInjector
from repro.redundancy.faults import EXEC_PRIMARY
from repro.simulation import simulate

from helpers import addi, straightline

R1, R2, R3 = int_reg(1), int_reg(2), int_reg(3)


def run_die(ops, count=None, **kwargs):
    trace = straightline(ops, count=count)
    return simulate(trace, "die", **kwargs)


class TestDuplication:
    def test_every_instruction_dispatches_twice(self):
        result = run_die([addi(R1, 0, i) for i in range(10)])
        assert result.stats.dispatched == 20
        assert result.stats.committed == 10
        assert result.stats.pairs_checked == 10

    def test_die_never_faster_than_sie(self, gzip_trace):
        sie = simulate(gzip_trace, "sie").stats.cycles
        die = simulate(gzip_trace, "die").stats.cycles
        assert die >= sie

    def test_pair_links_are_mutual(self):
        trace = straightline([addi(R1, 0, 1)])
        pipeline = DIEPipeline(trace)
        entries = pipeline._hook_make_entries(trace[0], PRIMARY)
        primary, duplicate = entries
        assert primary.pair is duplicate and duplicate.pair is primary
        assert primary.stream == PRIMARY and duplicate.stream == DUPLICATE

    def test_duplicate_memory_ops_skip_the_cache(self):
        ops = [addi(R1, 0, 0x2000)] + [
            (Opcode.LOAD, int_reg(2 + i), R1, None, 8 * i) for i in range(4)
        ]
        trace = straightline(ops)
        sie = simulate(trace, "sie")
        die = simulate(trace, "die")
        # Memory is outside the SoR: the access count must not double.
        assert (
            die.pipeline.hier.l1d.stats.accesses
            == sie.pipeline.hier.l1d.stats.accesses
        )

    def test_duplicate_loads_do_not_take_lsq_slots(self):
        ops = [addi(R1, 0, 0x2000), (Opcode.LOAD, R2, R1, None, 0)]
        trace = straightline(ops)
        pipeline = DIEPipeline(trace)
        pipeline.warm_up()
        pipeline.run()
        assert pipeline.lsq_count == 0  # drained, never double-counted


class TestEffectiveProducer:
    def test_duplicate_consumer_waits_for_primary_load(self):
        """The single memory access feeds both streams' dataflow."""
        trace = straightline(
            [addi(R1, 0, 0x2000), (Opcode.LOAD, R2, R1, None, 0), (Opcode.ADD, R3, R2, R2, 0)]
        )
        pipeline = DIEPipeline(trace)
        load_primary = DynInst(trace[1], PRIMARY)
        load_duplicate = DynInst(trace[1], DUPLICATE)
        load_primary.pair = load_duplicate
        load_duplicate.pair = load_primary
        consumer_dup = DynInst(trace[2], DUPLICATE)
        resolved = pipeline._hook_effective_producer(consumer_dup, load_duplicate)
        assert resolved is load_primary

    def test_alu_producers_stay_in_stream(self):
        trace = straightline([addi(R1, 0, 1), (Opcode.ADD, R2, R1, R1, 0)])
        pipeline = DIEPipeline(trace)
        producer_dup = DynInst(trace[0], DUPLICATE)
        consumer_dup = DynInst(trace[1], DUPLICATE)
        assert (
            pipeline._hook_effective_producer(consumer_dup, producer_dup)
            is producer_dup
        )


class TestChecker:
    def test_matching_pair_passes(self):
        trace = straightline([addi(R1, 0, 5)])
        checker = CommitChecker()
        p, d = DynInst(trace[0], PRIMARY), DynInst(trace[0], DUPLICATE)
        assert checker.check(p, d)

    def test_corrupted_pair_fails(self):
        trace = straightline([addi(R1, 0, 5)])
        checker = CommitChecker()
        p, d = DynInst(trace[0], PRIMARY), DynInst(trace[0], DUPLICATE)
        d.result = 6
        assert not checker.check(p, d)

    def test_mismatched_seq_is_a_bug(self):
        t = straightline([addi(R1, 0, 1), addi(R2, 0, 2)])
        checker = CommitChecker()
        with pytest.raises(ValueError):
            checker.check(DynInst(t[0], PRIMARY), DynInst(t[1], DUPLICATE))

    def test_mem_pairs_compare_addresses(self):
        trace = straightline([addi(R1, 0, 0x2000), (Opcode.STORE, None, R1, R1, 0)])
        checker = CommitChecker()
        p, d = DynInst(trace[1], PRIMARY), DynInst(trace[1], DUPLICATE)
        assert checker.check(p, d)
        d.mem_addr = 0x3000
        assert not checker.check(p, d)


class TestFaultRecovery:
    def test_exec_fault_detected_and_recovered(self):
        ops = [addi(int_reg(1 + (i % 8)), 0, i) for i in range(20)]
        trace = straightline(ops)
        injector = FaultInjector([Fault(kind=EXEC_PRIMARY, seq=10)])
        result = simulate(trace, "die", fault_injector=injector)
        assert result.stats.check_mismatches == 1
        assert result.stats.recoveries == 1
        # Rewind re-executes: everything still commits exactly once.
        assert result.stats.committed == 20

    def test_recovery_costs_cycles(self):
        ops = [addi(int_reg(1 + (i % 8)), 0, i) for i in range(20)]
        trace = straightline(ops)
        clean = simulate(trace, "die").stats.cycles
        injector = FaultInjector([Fault(kind=EXEC_PRIMARY, seq=10)])
        faulty = simulate(trace, "die", fault_injector=injector).stats.cycles
        assert faulty > clean

    def test_fault_free_run_never_mismatches(self, gzip_trace):
        result = simulate(gzip_trace, "die")
        assert result.stats.check_mismatches == 0

    def test_die_respects_scaled_configs(self, gzip_trace):
        base = simulate(gzip_trace, "die").ipc
        doubled = simulate(
            gzip_trace, "die", config=MachineConfig.baseline().scaled(alu=2, ruu=2, widths=2)
        ).ipc
        assert doubled > base

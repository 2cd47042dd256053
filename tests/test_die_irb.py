"""Directed tests for the DIE-IRB pipeline (the paper's contribution)."""


from repro.core import DUPLICATE, MachineConfig, PRIMARY
from repro.isa import Opcode, int_reg
from repro.redundancy import Fault, FaultInjector
from repro.redundancy.faults import IRB_ENTRY
from repro.reuse import DIEIRBPipeline, IRBConfig
from repro.simulation import simulate

from helpers import addi, assemble
from repro.workloads.executor import FunctionalExecutor

R1, R2, R3 = int_reg(1), int_reg(2), int_reg(3)


def repetitive_trace(iterations=12):
    """A loop whose body repeats operand values every iteration."""
    ops = [addi(R1, 0, 5), addi(R2, 0, 7), (Opcode.ADD, R3, R1, R2, 0)]
    program = assemble(ops)  # + JUMP back: 4 insts per iteration
    return FunctionalExecutor(program).run(4 * iterations)


class TestReuse:
    def test_repetitive_code_reuses(self):
        result = simulate(repetitive_trace(), "die-irb")
        stats = result.stats
        assert stats.irb_lookups == 48
        assert stats.irb_pc_hits > 30
        assert stats.irb_reuse_hits > 25

    def test_reuse_hits_skip_issue_slots(self):
        trace = repetitive_trace()
        die = simulate(trace, "die")
        irb = simulate(trace, "die-irb")
        # Every reuse hit is an instruction the scheduler never selected.
        assert irb.stats.issued == die.stats.issued - irb.stats.irb_reuse_hits

    def test_reuse_reduces_alu_work(self):
        from repro.isa import FUClass

        trace = repetitive_trace(iterations=50)
        die = simulate(trace, "die")
        irb = simulate(trace, "die-irb")
        assert (
            irb.stats.fu_issued[FUClass.INT_ALU]
            < die.stats.fu_issued[FUClass.INT_ALU]
        )

    def test_die_irb_not_slower_than_die(self, gzip_trace):
        die = simulate(gzip_trace, "die").stats.cycles
        irb = simulate(gzip_trace, "die-irb").stats.cycles
        assert irb <= die

    def test_induction_values_never_reuse(self):
        # A counter chain produces fresh values each iteration: no reuse
        # for the accumulating instruction.
        ops = [addi(R1, R1, 1)]
        program = assemble(ops)
        trace = FunctionalExecutor(program).run(24)
        result = simulate(trace, "die-irb")
        # Only the structural JUMP can reuse (constant outcome).
        reuse_pcs = result.stats.irb_reuse_hits
        jump_count = sum(1 for i in trace if i.opcode is Opcode.JUMP)
        assert reuse_pcs <= jump_count


class TestComplexityEffectiveProperties:
    def test_duplicates_wake_from_primary_producers(self):
        trace = repetitive_trace()
        pipeline = DIEIRBPipeline(trace)
        assert pipeline.WAKE_FROM_PRIMARY
        pipeline.warm_up()
        # Dispatch links both streams' sources through the primary
        # producer table: a waiting duplicate waits on a primary.
        links = []
        for _ in range(40):
            pipeline._step()
            links += [
                (producer.stream, consumer.stream)
                for producer in pipeline.ruu
                for consumer in producer.consumers
            ]
        assert (PRIMARY, DUPLICATE) in links
        assert all(stream == PRIMARY for stream, _ in links)

    def test_port_starvation_degrades_to_die(self):
        trace = repetitive_trace()
        no_ports = IRBConfig(read_ports=0, write_ports=2, rw_ports=0)
        result = simulate(trace, "die-irb", irb_config=no_ports)
        assert result.stats.irb_reuse_hits == 0
        assert result.stats.irb_port_starved == result.stats.irb_lookups
        die = simulate(trace, "die")
        assert result.stats.cycles == die.stats.cycles

    def test_lookup_latency_beyond_frontend_delays_reuse(self):
        trace = repetitive_trace(iterations=40)
        fast = simulate(trace, "die-irb", irb_config=IRBConfig(lookup_latency=1))
        slow = simulate(trace, "die-irb", irb_config=IRBConfig(lookup_latency=12))
        assert slow.stats.cycles >= fast.stats.cycles

    def test_name_based_mode_runs_and_reuses_less_or_equal(self, gzip_trace):
        value = simulate(gzip_trace, "die-irb", irb_config=IRBConfig(name_based=False))
        name = simulate(gzip_trace, "die-irb", irb_config=IRBConfig(name_based=True))
        assert name.stats.irb_reuse_hits <= value.stats.irb_reuse_hits


class TestRedundancyProperties:
    def test_corrupted_entry_detected_on_reuse(self):
        trace = repetitive_trace(iterations=30)
        add_pc = 8  # the ADD r3, r1, r2 site
        injector = FaultInjector(
            [Fault(kind=IRB_ENTRY, pc=add_pc, cycle=30)]
        )
        result = simulate(trace, "die-irb", fault_injector=injector)
        assert injector.log.injected == 1
        assert result.stats.check_mismatches >= 1
        assert result.stats.committed == len(trace)

    def test_entry_invalidated_after_mismatch(self):
        # After recovery the pipeline must not re-hit the corrupt entry
        # (that would livelock); detection count stays small.
        trace = repetitive_trace(iterations=30)
        injector = FaultInjector([Fault(kind=IRB_ENTRY, pc=8, cycle=30)])
        result = simulate(trace, "die-irb", fault_injector=injector)
        assert result.stats.check_mismatches <= 2

    def test_fault_free_run_is_clean(self, gzip_trace):
        result = simulate(gzip_trace, "die-irb")
        assert result.stats.check_mismatches == 0


class TestCommitSideUpdates:
    def test_irb_writes_happen_at_commit(self):
        trace = repetitive_trace(iterations=6)
        result = simulate(trace, "die-irb")
        assert result.stats.irb_writes > 0

    def test_reuse_hits_do_not_rewrite_entries(self):
        # Steady-state loop: once everything hits, installs stop.
        trace = repetitive_trace(iterations=60)
        result = simulate(trace, "die-irb")
        assert result.stats.irb_writes < len(trace) // 2

    def test_scaled_machine_composes_with_irb(self, gzip_trace):
        config = MachineConfig.baseline().scaled(alu=2)
        result = simulate(gzip_trace, "die-irb", config=config)
        base = simulate(gzip_trace, "die-irb")
        assert result.ipc >= base.ipc

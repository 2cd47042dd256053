"""Unit tests for FU pool, machine config, stats and DynInst."""

import pytest

from helpers import addi, straightline
from repro.core import DUPLICATE, DynInst, MachineConfig, OOOPipeline, PRIMARY, SimStats
from repro.isa import FUClass, Opcode, OpTiming
from repro.isa.latencies import TIMING_TABLE
from repro.isa.registers import fp_reg
from repro.isa.instruction import TraceInst


def make_trace_inst(opcode=Opcode.ADD, seq=0, dst=1, src1=2, src2=3):
    from repro.isa import fu_class

    return TraceInst(
        seq=seq,
        pc=seq * 4,
        opcode=opcode,
        fu=fu_class(opcode),
        dst=dst,
        src1=src1,
        src2=src2,
        src1_val=1,
        src2_val=2,
        result=3,
        mem_addr=None,
        taken=False,
        next_pc=seq * 4 + 4,
    )


class TestOpTiming:
    def test_defaults_single_cycle(self):
        assert TIMING_TABLE[Opcode.ADD].latency == 1
        assert TIMING_TABLE[Opcode.ADD].init_interval == 1

    def test_unpipelined_ops(self):
        div = TIMING_TABLE[Opcode.DIV]
        assert div.latency == 20 and div.init_interval == 19
        fsqrt = TIMING_TABLE[Opcode.FSQRT]
        assert fsqrt.init_interval == fsqrt.latency

    def test_pipelined_long_ops(self):
        assert TIMING_TABLE[Opcode.FMUL].latency == 4
        assert TIMING_TABLE[Opcode.FMUL].init_interval == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            OpTiming(latency=0)
        with pytest.raises(ValueError):
            OpTiming(latency=2, init_interval=3)


def _issue_rig(ops, **fu_counts):
    """A pipeline over ``straightline(ops)`` and one fresh entry per op."""
    trace = straightline(ops)
    pipeline = OOOPipeline(trace, MachineConfig(**fu_counts))
    return pipeline, [DynInst(inst, PRIMARY) for inst in trace.insts]


DIV_ROW = (Opcode.DIV, 3, 1, 2, None)


class TestFUPool:
    """Unit occupancy as the issue stage claims it (``_try_issue``)."""

    def test_pipelined_unit_accepts_every_cycle(self):
        pipeline, insts = _issue_rig([addi(1, 0, 1)] * 3, int_alu=1)
        units = pipeline.fu.units(FUClass.INT_ALU)
        assert pipeline._try_issue(insts[0], 0, units)
        assert not pipeline._try_issue(insts[1], 0, units)
        assert pipeline._try_issue(insts[1], 1, units)

    def test_n_units_give_n_slots_per_cycle(self):
        pipeline, insts = _issue_rig([addi(1, 0, 1)] * 6, int_alu=4)
        units = pipeline.fu.units(FUClass.INT_ALU)
        issued = sum(pipeline._try_issue(inst, 0, units) for inst in insts)
        assert issued == 4
        assert pipeline.stats.fu_issued == {FUClass.INT_ALU: 4}

    def test_unpipelined_blocks_for_interval(self):
        pipeline, insts = _issue_rig(
            [addi(1, 0, 7), addi(2, 0, 3), DIV_ROW, DIV_ROW], int_muldiv=1
        )
        first, second = insts[2:]
        interval = first.dec.timing.init_interval
        assert interval > 1  # DIV is unpipelined
        units = pipeline.fu.units(FUClass.INT_MULDIV)
        assert pipeline._try_issue(first, 0, units)
        for cycle in range(1, interval):
            assert not pipeline._try_issue(second, cycle, units)
        assert pipeline._try_issue(second, interval, units)
        assert pipeline.stats.fu_busy_cycles[FUClass.INT_MULDIV] == 2 * interval

    def test_absent_class_never_issues(self):
        pipeline, insts = _issue_rig([(Opcode.FADD, fp_reg(1), fp_reg(2), fp_reg(3), None)], fp_add=0)
        units = pipeline.fu.units(FUClass.FP_ADD)
        assert units == []
        assert not pipeline._try_issue(insts[0], 0, units)
        assert not insts[0].issued

    def test_free_units_counting(self):
        pipeline, insts = _issue_rig([addi(1, 0, 1)], int_alu=3)
        units = pipeline.fu.units(FUClass.INT_ALU)
        assert pipeline._try_issue(insts[0], 0, units)
        assert sum(busy <= 0 for busy in units) == 2


class TestMachineConfig:
    def test_baseline_matches_paper(self):
        config = MachineConfig.baseline()
        assert config.issue_width == 8
        assert config.ruu_size == 128 and config.lsq_size == 64
        assert (config.int_alu, config.int_muldiv, config.fp_add, config.fp_muldiv) == (
            4, 2, 2, 1,
        )

    def test_scaled_alu(self):
        config = MachineConfig.baseline().scaled(alu=2)
        assert config.int_alu == 8 and config.fp_muldiv == 2
        assert config.ruu_size == 128  # untouched

    def test_scaled_ruu(self):
        config = MachineConfig.baseline().scaled(ruu=2)
        assert config.ruu_size == 256 and config.lsq_size == 128

    def test_scaled_widths(self):
        config = MachineConfig.baseline().scaled(widths=2)
        assert config.fetch_width == config.commit_width == 16

    def test_scaled_combination(self):
        config = MachineConfig.baseline().scaled(alu=2, ruu=2, widths=2)
        assert (config.int_alu, config.ruu_size, config.issue_width) == (8, 256, 16)

    def test_scaled_rejects_zero(self):
        with pytest.raises(ValueError):
            MachineConfig.baseline().scaled(alu=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(issue_width=0)

    def test_fu_counts_exposed(self):
        counts = MachineConfig.baseline().fu_counts
        assert counts[FUClass.INT_ALU] == 4

    def test_describe_mentions_key_resources(self):
        text = MachineConfig.baseline().describe()
        assert "128 / 64" in text and "4/2/2/1" in text

    def test_frozen(self):
        with pytest.raises(Exception):
            MachineConfig.baseline().issue_width = 4


class TestSimStats:
    def test_ipc(self):
        stats = SimStats(cycles=100, committed=250)
        assert stats.ipc == 2.5

    def test_ipc_zero_cycles(self):
        assert SimStats().ipc == 0.0

    def test_mispredict_rate(self):
        stats = SimStats(branches=100, mispredicts=7)
        assert stats.mispredict_rate == pytest.approx(0.07)

    def test_irb_rates(self):
        stats = SimStats(irb_lookups=100, irb_pc_hits=80, irb_reuse_hits=30)
        assert stats.irb_pc_hit_rate == pytest.approx(0.8)
        assert stats.irb_reuse_rate == pytest.approx(0.3)

    def test_fu_utilization(self):
        stats = SimStats(cycles=100, fu_busy_cycles={FUClass.INT_ALU: 2})
        assert stats.fu_utilization(FUClass.INT_ALU, 1) == pytest.approx(0.02)
        assert stats.fu_utilization(FUClass.FP_ADD, 2) == 0.0


class TestDynInst:
    def test_uid_interleaves_streams(self):
        primary = DynInst(make_trace_inst(seq=5), PRIMARY)
        duplicate = DynInst(make_trace_inst(seq=5), DUPLICATE)
        assert duplicate.uid == primary.uid + 1

    def test_output_for_alu_is_result(self):
        inst = DynInst(make_trace_inst(), PRIMARY)
        assert inst.output() == 3

    def test_output_for_mem_is_address(self):
        trace = make_trace_inst(opcode=Opcode.LOAD)
        trace.mem_addr = 0x42
        inst = DynInst(trace, DUPLICATE)
        inst.mem_addr = 0x42
        assert inst.output() == 0x42

    def test_fault_changes_output_not_trace(self):
        trace = make_trace_inst()
        inst = DynInst(trace, PRIMARY)
        inst.result = 99
        assert trace.result == 3
        assert inst.output() == 99

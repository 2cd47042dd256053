"""Unit and property tests for the Instruction Reuse Buffer."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import addi, straightline
from repro.isa import Opcode
from repro.reuse import IRB, DIEIRBPipeline, IRBConfig, IRBEntry, PortArbiter


def drain_all(irb):
    """Drain the write queue with unlimited ports."""
    ports = PortArbiter(read_ports=0, write_ports=64, rw_ports=0)
    cycle = 0
    while irb.write_q:
        irb.drain(ports, cycle)
        cycle += 1


class TestIRBConfig:
    def test_paper_defaults(self):
        config = IRBConfig()
        assert config.entries == 1024 and config.ways == 1
        assert (config.read_ports, config.write_ports, config.rw_ports) == (4, 2, 2)
        assert config.lookup_latency == 3

    def test_rejects_non_pow2_entries(self):
        with pytest.raises(ValueError):
            IRBConfig(entries=1000)

    def test_rejects_bad_ways(self):
        with pytest.raises(ValueError):
            IRBConfig(entries=64, ways=3)

    def test_rejects_unknown_replacement(self):
        with pytest.raises(ValueError):
            IRBConfig(replacement="random")

    def test_sets_derivation(self):
        assert IRBConfig(entries=64, ways=4).sets == 16


class TestLookupInsert:
    def test_miss_then_hit(self):
        irb = IRB(IRBConfig(entries=16))
        assert irb.lookup(0x100) is None
        irb.enqueue_write(0x100, 1, 2, 3)
        drain_all(irb)
        entry = irb.lookup(0x100)
        assert entry is not None
        assert (entry.op1, entry.op2, entry.result) == (1, 2, 3)

    def test_refresh_in_place(self):
        irb = IRB(IRBConfig(entries=16))
        irb.enqueue_write(0x100, 1, 2, 3)
        irb.enqueue_write(0x100, 4, 5, 6)
        drain_all(irb)
        entry = irb.lookup(0x100)
        assert (entry.op1, entry.op2, entry.result) == (4, 5, 6)
        assert irb.occupancy == 1

    def test_direct_mapped_conflict_evicts(self):
        irb = IRB(IRBConfig(entries=16, ways=1))
        conflicting = 0x100 + 16 * 4  # same set, different PC
        irb.enqueue_write(0x100, 1, 1, 1)
        irb.enqueue_write(conflicting, 2, 2, 2)
        drain_all(irb)
        assert irb.lookup(0x100) is None
        assert irb.lookup(conflicting) is not None

    def test_two_way_keeps_both(self):
        irb = IRB(IRBConfig(entries=16, ways=2))
        conflicting = 0x100 + 8 * 4
        irb.enqueue_write(0x100, 1, 1, 1)
        irb.enqueue_write(conflicting, 2, 2, 2)
        drain_all(irb)
        assert irb.lookup(0x100) is not None
        assert irb.lookup(conflicting) is not None

    def test_invalidate(self):
        irb = IRB(IRBConfig(entries=16))
        irb.enqueue_write(0x100, 1, 2, 3)
        drain_all(irb)
        assert irb.invalidate(0x100)
        assert irb.lookup(0x100) is None
        assert not irb.invalidate(0x100)

    def test_write_queue_overflow_drops_oldest(self):
        irb = IRB(IRBConfig(entries=16, write_queue_depth=2))
        for i in range(4):
            irb.enqueue_write(0x100 + 4 * i, i, i, i)
        assert irb.stats.write_drops == 2

    def test_flush(self):
        irb = IRB(IRBConfig(entries=16))
        irb.enqueue_write(0x100, 1, 2, 3)
        drain_all(irb)
        irb.flush()
        assert irb.occupancy == 0


class TestCTRReplacement:
    def test_hot_entry_defends_slot(self):
        irb = IRB(IRBConfig(entries=16, replacement="ctr"))
        irb.enqueue_write(0x100, 1, 1, 1)
        drain_all(irb)
        entry = irb.lookup(0x100)
        irb.touch(entry)  # ctr = 1
        conflicting = 0x100 + 16 * 4
        irb.enqueue_write(conflicting, 2, 2, 2)
        drain_all(irb)
        assert irb.lookup(0x100) is not None  # defended
        assert irb.lookup(conflicting) is None
        assert irb.stats.defended == 1

    def test_defence_decays(self):
        irb = IRB(IRBConfig(entries=16, replacement="ctr"))
        irb.enqueue_write(0x100, 1, 1, 1)
        drain_all(irb)
        irb.touch(irb.lookup(0x100))  # ctr = 1
        conflicting = 0x100 + 16 * 4
        for _ in range(2):  # first decays ctr to 0, second replaces
            irb.enqueue_write(conflicting, 2, 2, 2)
            drain_all(irb)
        assert irb.lookup(conflicting) is not None
        assert irb.lookup(0x100) is None

    def test_ctr_saturates(self):
        irb = IRB(IRBConfig(entries=16, replacement="ctr", ctr_bits=2))
        irb.enqueue_write(0x100, 1, 1, 1)
        drain_all(irb)
        entry = irb.lookup(0x100)
        for _ in range(10):
            irb.touch(entry)
        assert entry.ctr == 3


class TestReuseTests:
    def test_value_match(self):
        entry = IRBEntry(pc=0x100, op1=5, op2=7, result=12)
        assert entry.matches(5, 7)
        assert not entry.matches(5, 8)
        assert not entry.matches(None, 7)

    def test_value_match_with_absent_operand(self):
        entry = IRBEntry(pc=0x100, op1=5, op2=None, result=10)
        assert entry.matches(5, None)
        assert not entry.matches(5, 0)

    def test_name_operands_track_versions(self):
        trace = straightline([(Opcode.ADD, 1, 3, 4, None)])
        pipeline = DIEIRBPipeline(trace, irb_config=IRBConfig(entries=16, name_based=True))
        inst = trace.insts[0]
        entry = IRBEntry(inst.pc, *pipeline._name_operands(inst), result=9)
        assert entry.matches(*pipeline._name_operands(inst))
        pipeline.irb.note_reg_write(3)
        assert not entry.matches(*pipeline._name_operands(inst))

    def test_name_operands_carry_register_ids(self):
        trace = straightline(
            [addi(1, 3, 1), addi(1, 5, 1), (Opcode.ADD, 1, 3, 4, None)]
        )
        pipeline = DIEIRBPipeline(trace, irb_config=IRBConfig(entries=16, name_based=True))
        reads_r3, reads_r5, reads_r3_r4 = (
            pipeline._name_operands(inst) for inst in trace.insts
        )
        entry = IRBEntry(0x100, *reads_r3, result=9)
        assert entry.matches(*reads_r3)
        assert not entry.matches(*reads_r5)
        assert not entry.matches(*reads_r3_r4)


class TestCorruption:
    def test_corrupt_targeted_pc(self):
        irb = IRB(IRBConfig(entries=16))
        irb.enqueue_write(0x100, 1, 2, 3)
        drain_all(irb)
        assert irb.corrupt(0x100, lambda v: v + 1)
        assert irb.lookup(0x100).result == 4

    def test_corrupt_missing_pc_is_latent(self):
        irb = IRB(IRBConfig(entries=16))
        assert not irb.corrupt(0x100, lambda v: v + 1)

    def test_corrupt_any(self):
        irb = IRB(IRBConfig(entries=16))
        assert not irb.corrupt(-1, lambda v: v + 1)
        irb.enqueue_write(0x100, 1, 2, 3)
        drain_all(irb)
        assert irb.corrupt(-1, lambda v: v + 1)


class TestPortArbiter:
    def test_read_capacity(self):
        ports = PortArbiter(read_ports=2, write_ports=1, rw_ports=1)
        grants = [ports.try_read(0) for _ in range(4)]
        assert grants == [True, True, True, False]  # 2R + 1RW

    def test_write_capacity(self):
        ports = PortArbiter(read_ports=2, write_ports=1, rw_ports=1)
        grants = [ports.try_write(0) for _ in range(3)]
        assert grants == [True, True, False]  # 1W + 1RW

    def test_rw_shared_between_sides(self):
        ports = PortArbiter(read_ports=1, write_ports=1, rw_ports=1)
        assert ports.try_read(0) and ports.try_read(0)  # R + RW
        assert ports.try_write(0)  # W
        assert not ports.try_write(0)  # RW already spent on a read

    def test_cycle_rollover_resets(self):
        ports = PortArbiter(read_ports=1, write_ports=0, rw_ports=0)
        assert ports.try_read(0)
        assert not ports.try_read(0)
        assert ports.try_read(1)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from(["r", "w"])),
            max_size=60,
        )
    )
    def test_grants_never_exceed_capacity(self, requests):
        ports = PortArbiter(read_ports=2, write_ports=1, rw_ports=2)
        per_cycle = {}
        for cycle, kind in sorted(requests, key=lambda t: t[0]):
            ok = ports.try_read(cycle) if kind == "r" else ports.try_write(cycle)
            if ok:
                reads, writes = per_cycle.get(cycle, (0, 0))
                per_cycle[cycle] = (
                    (reads + 1, writes) if kind == "r" else (reads, writes + 1)
                )
        for reads, writes in per_cycle.values():
            assert reads <= 4 and writes <= 3
            assert reads + writes <= 5  # R + W + RW total


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 31), st.integers(0, 7), st.integers(0, 7)),
        min_size=1,
        max_size=120,
    )
)
def test_irb_agrees_with_reference_model(operations):
    """Property: a direct-mapped IRB behaves as a per-set last-writer map."""
    irb = IRB(IRBConfig(entries=8, ways=1, write_queue_depth=256))
    reference = {}
    for pc4, op1, op2 in operations:
        pc = pc4 * 4
        irb.enqueue_write(pc, op1, op2, op1 + op2)
        drain_all(irb)
        reference[pc4 % 8] = (pc, op1, op2)
    for set_index, (pc, op1, op2) in reference.items():
        entry = irb.lookup(pc)
        assert entry is not None
        assert (entry.op1, entry.op2, entry.result) == (op1, op2, op1 + op2)

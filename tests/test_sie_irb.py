"""Tests for the classic SIE-IRB baseline [29]."""

import pytest

from repro.isa import FUClass, Opcode, int_reg
from repro.reuse import IRBConfig
from repro.simulation import simulate

from helpers import addi, assemble
from repro.workloads.executor import FunctionalExecutor

R1, R2, R3 = int_reg(1), int_reg(2), int_reg(3)


def repetitive_trace(iterations=12):
    ops = [addi(R1, 0, 5), addi(R2, 0, 7), (Opcode.ADD, R3, R1, R2, 0)]
    return FunctionalExecutor(assemble(ops)).run(4 * iterations)


class TestSieIrb:
    def test_name_based_config_is_rejected(self):
        # Only DIE-IRB implements the name-based variant; an ignored flag
        # would give SIE-IRB's stats under a different job key.
        with pytest.raises(ValueError, match="name_based"):
            simulate(repetitive_trace(), "sie-irb", irb_config=IRBConfig(name_based=True))

    def test_reuse_happens_on_single_stream(self):
        result = simulate(repetitive_trace(), "sie-irb")
        assert result.stats.irb_reuse_hits > 20

    def test_reuse_hits_still_consume_issue_slots(self):
        # Unlike DIE-IRB, the classic scheme selects reuse hits like FU
        # ops, so issue counts match plain SIE.
        trace = repetitive_trace()
        sie = simulate(trace, "sie")
        sie_irb = simulate(trace, "sie-irb")
        assert sie_irb.stats.issued == sie.stats.issued

    def test_reuse_hits_skip_the_alus(self):
        trace = repetitive_trace(iterations=50)
        sie = simulate(trace, "sie")
        sie_irb = simulate(trace, "sie-irb")
        assert (
            sie_irb.stats.fu_issued[FUClass.INT_ALU]
            < sie.stats.fu_issued[FUClass.INT_ALU]
        )

    def test_load_reuse_covers_address_only(self):
        # A reused load must still access the D-cache.
        ops = [addi(R1, 0, 0x2000), (Opcode.LOAD, R2, R1, None, 0)]
        trace = FunctionalExecutor(assemble(ops)).run(3 * 20)
        sie = simulate(trace, "sie")
        sie_irb = simulate(trace, "sie-irb")
        assert (
            sie_irb.pipeline.hier.l1d.stats.accesses
            == sie.pipeline.hier.l1d.stats.accesses
        )

    def test_sie_irb_helps_less_than_die_irb(self, gzip_trace):
        """Citron's observation: reuse barely helps a balanced SIE core,
        while the same IRB attacks DIE's real bandwidth shortage."""
        sie = simulate(gzip_trace, "sie").ipc
        sie_irb = simulate(gzip_trace, "sie-irb").ipc
        die = simulate(gzip_trace, "die").ipc
        die_irb = simulate(gzip_trace, "die-irb").ipc
        sie_gain = sie_irb / sie
        die_gain = die_irb / die
        assert die_gain > sie_gain

    def test_commits_everything(self, gzip_trace):
        result = simulate(gzip_trace, "sie-irb")
        assert result.stats.committed == len(gzip_trace)

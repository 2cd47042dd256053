"""Tests for the stride value predictor and the DIE-VP pipeline."""

from repro.isa import Opcode, int_reg
from repro.redundancy import Fault, FaultInjector
from repro.redundancy.faults import EXEC_PRIMARY
from repro.reuse import StrideValuePredictor
from repro.simulation import simulate

from helpers import addi, assemble, straightline
from repro.workloads.executor import FunctionalExecutor

R1, R2, R3 = int_reg(1), int_reg(2), int_reg(3)


class TestStridePredictor:
    def test_constant_sequence_predicts_after_training(self):
        vp = StrideValuePredictor()
        for _ in range(4):
            vp.update(0x100, 42)
        assert vp.predict(0x100) == 42

    def test_stride_sequence_predicts_next(self):
        vp = StrideValuePredictor()
        for value in (10, 20, 30, 40):
            vp.update(0x100, value)
        assert vp.predict(0x100) == 50

    def test_cold_pc_predicts_nothing(self):
        vp = StrideValuePredictor()
        assert vp.predict(0x100) is None

    def test_unstable_sequence_stays_unconfident(self):
        vp = StrideValuePredictor()
        for value in (1, 5, 2, 9, 4, 13):
            vp.update(0x100, value)
        assert vp.predict(0x100) is None

    def test_confidence_resets_on_stride_change(self):
        vp = StrideValuePredictor()
        for value in (10, 20, 30, 40):
            vp.update(0x100, value)
        vp.update(0x100, 100)  # stride break
        assert vp.predict(0x100) is None

    def test_non_numeric_values_use_last_value(self):
        vp = StrideValuePredictor()
        for _ in range(4):
            vp.update(0x100, 2.5)
        assert vp.predict(0x100) == 2.5


class TestDIEVPPipeline:
    def _induction_trace(self, iterations=30):
        # acc += 3 every iteration: pure stride, ZERO reuse for an IRB.
        ops = [(Opcode.ADDI, R1, R1, None, 3)]
        return FunctionalExecutor(assemble(ops)).run(2 * iterations)

    def test_vp_serves_induction_where_irb_cannot(self):
        trace = self._induction_trace()
        irb = simulate(trace, "die-irb")
        vp = simulate(trace, "die-vp")
        # The ADDI's outcome strides by 3: VP verifies it, the IRB never.
        jump_only = sum(1 for i in trace if i.opcode is Opcode.JUMP)
        assert irb.stats.irb_reuse_hits <= jump_only
        assert vp.stats.irb_reuse_hits > jump_only

    def test_commits_everything(self, gzip_trace):
        result = simulate(gzip_trace, "die-vp")
        assert result.stats.committed == len(gzip_trace)
        assert result.stats.check_mismatches == 0

    def test_never_slower_than_die(self, gzip_trace):
        die = simulate(gzip_trace, "die").stats.cycles
        vp = simulate(gzip_trace, "die-vp").stats.cycles
        assert vp <= die * 1.01

    def test_bounded_by_sie(self, gzip_trace):
        sie = simulate(gzip_trace, "sie").ipc
        vp = simulate(gzip_trace, "die-vp").ipc
        assert vp <= sie * 1.001

    def test_faulted_primary_fails_verification_and_is_detected(self):
        trace = straightline(
            [addi(int_reg(1 + (i % 8)), 0, 5) for i in range(20)]
        )
        injector = FaultInjector([Fault(kind=EXEC_PRIMARY, seq=10)])
        result = simulate(trace, "die-vp", fault_injector=injector)
        # The duplicate falls back to the ALUs and the checker catches
        # the divergence.
        assert result.stats.check_mismatches == 1
        assert result.stats.committed == 20

    def test_a6_experiment_renders(self):
        from repro.experiments import get_experiment

        result = get_experiment("A6").run(apps=("gzip",), n_insts=4000)
        assert "loss% VP" in result.render()

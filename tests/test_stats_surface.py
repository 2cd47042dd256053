"""Directed tests for the SimStats surface the suite left uncovered:
``fu_utilization`` edge cases, the dict round-trips, and the four stall
counters driven by forced structural pressure."""

import dataclasses

import pytest

from helpers import addi, straightline
from repro.campaign.store import stats_from_dict, stats_to_dict
from repro.core import MachineConfig, OOOPipeline, SimStats
from repro.core.decoded import OP_META
from repro.isa import FUClass, Opcode
from repro.simulation import run_workload


class TestFuUtilization:
    def test_zero_cycles_is_zero(self):
        stats = SimStats()
        stats.fu_busy_cycles[FUClass.INT_ALU] = 50
        assert stats.fu_utilization(FUClass.INT_ALU, 4) == 0.0

    def test_zero_units_is_zero_not_division_error(self):
        stats = SimStats(cycles=100)
        stats.fu_busy_cycles[FUClass.INT_ALU] = 50
        assert stats.fu_utilization(FUClass.INT_ALU, 0) == 0.0

    def test_unused_class_is_zero(self):
        stats = SimStats(cycles=100)
        assert stats.fu_utilization(FUClass.FP_ADD, 2) == 0.0

    def test_mean_over_unit_count(self):
        stats = SimStats(cycles=100)
        stats.fu_busy_cycles[FUClass.INT_ALU] = 50
        assert stats.fu_utilization(FUClass.INT_ALU, 1) == pytest.approx(0.5)
        assert stats.fu_utilization(FUClass.INT_ALU, 2) == pytest.approx(0.25)

    def test_issue_accumulates_busy(self):
        # Two unpipelined divides on one unit: each issue holds the unit
        # for the op's full initiation interval.
        div = (Opcode.DIV, 3, 1, 2, None)
        trace = straightline([addi(1, 0, 7), addi(2, 0, 3), div, div])
        stats = OOOPipeline(trace, MachineConfig(int_muldiv=1)).run()
        busy = 2 * OP_META[Opcode.DIV].timing.init_interval
        assert stats.fu_issued[FUClass.INT_MULDIV] == 2
        assert stats.fu_busy_cycles[FUClass.INT_MULDIV] == busy
        assert stats.fu_utilization(FUClass.INT_MULDIV, 1) == pytest.approx(
            busy / stats.cycles
        )


class TestDictRoundTrip:
    def test_to_dict_names_fu_classes_and_adds_ratios(self):
        stats = SimStats(
            cycles=10, committed=20, branches=4, mispredicts=1,
            fu_issued={FUClass.INT_ALU: 1},
        )
        payload = stats.to_dict()
        assert payload["fu_issued"] == {"INT_ALU": 1}
        assert payload["ipc"] == pytest.approx(2.0)
        assert payload["mispredict_rate"] == pytest.approx(0.25)
        assert payload["irb_reuse_rate"] == 0.0  # no lookups: no div-by-zero

    def test_store_round_trip_restores_enum_keys(self):
        stats = SimStats(
            cycles=7, committed=3, dispatch_stall_ruu=2,
            fu_issued={FUClass.FP_MULDIV: 1}, fu_busy_cycles={FUClass.FP_MULDIV: 3},
        )
        rebuilt = stats_from_dict(stats_to_dict(stats))
        assert rebuilt == stats
        assert FUClass.FP_MULDIV in rebuilt.fu_issued

    def test_missing_fields_keep_defaults(self):
        rebuilt = stats_from_dict({"cycles": 5})
        assert rebuilt.cycles == 5
        assert rebuilt.committed == 0 and rebuilt.fu_issued == {}


class TestStallCounters:
    """Each counter under a configuration that forces that stall."""

    N = 3_000

    def test_tiny_ruu_forces_dispatch_stall_ruu(self):
        config = dataclasses.replace(MachineConfig.baseline(), ruu_size=8)
        pressured = run_workload("gzip", n_insts=self.N, config=config).stats
        roomy = run_workload("gzip", n_insts=self.N).stats
        assert pressured.dispatch_stall_ruu > 0
        assert pressured.dispatch_stall_ruu > roomy.dispatch_stall_ruu

    def test_tiny_lsq_forces_dispatch_stall_lsq(self):
        config = dataclasses.replace(MachineConfig.baseline(), lsq_size=1)
        pressured = run_workload("gzip", n_insts=self.N, config=config).stats
        assert pressured.dispatch_stall_lsq > 0

    def test_cold_icache_forces_fetch_stall_icache(self):
        cold = run_workload("gzip", n_insts=self.N, warmup=False).stats
        warm = run_workload("gzip", n_insts=self.N, warmup=True).stats
        assert cold.fetch_stall_icache > 0
        assert cold.fetch_stall_icache >= warm.fetch_stall_icache

    def test_cold_predictor_forces_fetch_stall_mispredict(self):
        # gcc is the branchiest workload; a cold predictor must mispredict.
        cold = run_workload("gcc", n_insts=self.N, warmup=False).stats
        assert cold.mispredicts > 0
        assert cold.fetch_stall_mispredict > 0

    def test_stall_counters_survive_the_store_round_trip(self):
        config = dataclasses.replace(
            MachineConfig.baseline(), ruu_size=8, lsq_size=1
        )
        stats = run_workload("gzip", n_insts=self.N, config=config).stats
        rebuilt = stats_from_dict(stats_to_dict(stats))
        for name in (
            "fetch_stall_mispredict",
            "fetch_stall_icache",
            "dispatch_stall_ruu",
            "dispatch_stall_lsq",
        ):
            assert getattr(rebuilt, name) == getattr(stats, name)

"""Tests for the clustered-DIE extension (the paper's postponed study)."""

import pytest

from repro.core import DUPLICATE, DynInst, PRIMARY
from repro.isa import FUClass, int_reg
from repro.redundancy import (
    DIEClusterReplicatedPipeline,
    DIEClusterSplitPipeline,
    DIEClusteredPipeline,
)
from repro.simulation import simulate

from helpers import addi, straightline

R1 = int_reg(1)


class TestConstruction:
    def test_split_halves_the_complement(self, gzip_trace):
        pipeline = DIEClusterSplitPipeline(gzip_trace)
        for cluster in pipeline.clusters:
            assert cluster.counts[FUClass.INT_ALU] == 2
            assert cluster.counts[FUClass.FP_MULDIV] == 1  # floor at 1

    def test_replicated_keeps_the_full_complement(self, gzip_trace):
        pipeline = DIEClusterReplicatedPipeline(gzip_trace)
        for cluster in pipeline.clusters:
            assert cluster.counts[FUClass.INT_ALU] == 4

    def test_unknown_variant_rejected(self, gzip_trace):
        # The variant is a class attribute each registered subclass
        # declares; the base class names none and cannot be built.
        with pytest.raises(AttributeError):
            DIEClusteredPipeline(gzip_trace)

    def test_intercluster_delay_applies_across_streams(self, gzip_trace):
        pipeline = DIEClusterSplitPipeline(gzip_trace)
        producer = DynInst(gzip_trace[0], PRIMARY)
        same = DynInst(gzip_trace[1], PRIMARY)
        other = DynInst(gzip_trace[1], DUPLICATE)
        assert pipeline._hook_wake_delay(producer, same) == 0
        assert pipeline._hook_wake_delay(producer, other) == pipeline.INTERCLUSTER_DELAY == 2


class TestBehaviour:
    def test_both_variants_commit_everything(self, gzip_trace):
        for model in ("die-cluster-split", "die-cluster-repl"):
            result = simulate(gzip_trace, model)
            assert result.stats.committed == len(gzip_trace)
            assert result.stats.check_mismatches == 0

    def test_replicated_beats_split(self, gzip_trace):
        split = simulate(gzip_trace, "die-cluster-split").ipc
        repl = simulate(gzip_trace, "die-cluster-repl").ipc
        assert repl >= split

    def test_replicated_approaches_sie(self, gzip_trace):
        sie = simulate(gzip_trace, "sie").ipc
        repl = simulate(gzip_trace, "die-cluster-repl").ipc
        assert repl >= 0.8 * sie

    def test_clusters_bound_per_stream_issue(self):
        # 8 independent ADDIs: split clusters give each stream only 2
        # ALUs + half the issue width, so the duplicated load serializes
        # more than in base DIE's shared pool.
        ops = [addi(int_reg(1 + i), 0, i) for i in range(8)]
        trace = straightline(ops)
        die = simulate(trace, "die").stats.cycles
        split = simulate(trace, "die-cluster-split").stats.cycles
        assert split >= die

    def test_a4_experiment_renders(self):
        from repro.experiments import get_experiment

        result = get_experiment("A4").run(apps=("gzip",), n_insts=4000)
        text = result.render()
        assert "Cluster/2" in text and "DIE-IRB" in text

"""Tests for the SRT-style thread-level redundancy model."""

from repro.redundancy import SRTPipeline
from repro.simulation import get_trace, simulate


class TestConstruction:
    def test_default_slack(self):
        assert SRTPipeline.SLACK == 64


class TestExecution:
    def test_commits_and_checks_everything(self, gzip_trace):
        result = simulate(gzip_trace, "srt")
        assert result.stats.committed == len(gzip_trace)
        assert result.stats.pairs_checked == len(gzip_trace)
        assert result.stats.check_mismatches == 0

    def test_never_faster_than_sie(self, gzip_trace):
        sie = simulate(gzip_trace, "sie").stats.cycles
        srt = simulate(gzip_trace, "srt").stats.cycles
        assert srt >= sie

    def test_memory_accessed_once(self, gzip_trace):
        sie = simulate(gzip_trace, "sie")
        srt = simulate(gzip_trace, "srt")
        assert (
            srt.pipeline.hier.l1d.stats.accesses
            == sie.pipeline.hier.l1d.stats.accesses
        )

    def test_trailing_thread_never_mispredicts(self, gzip_trace):
        sie = simulate(gzip_trace, "sie")
        srt = simulate(gzip_trace, "srt")
        # Only the leading thread predicts: branch counts match SIE,
        # they do not double.
        assert srt.stats.branches == sie.stats.branches

    def test_works_on_all_classes(self, art_trace, ammp_trace):
        for trace in (art_trace, ammp_trace):
            result = simulate(trace, "srt")
            assert result.stats.committed == len(trace)

    def test_slack_sensitivity(self, gzip_trace):
        class Tight(SRTPipeline):
            SLACK = 8

        class Loose(SRTPipeline):
            SLACK = 128

        tight = Tight(gzip_trace)
        tight.warm_up()
        tight_stats = tight.run()
        loose = Loose(gzip_trace)
        loose.warm_up()
        loose_stats = loose.run()
        assert tight_stats.committed == loose_stats.committed == len(gzip_trace)


class TestFaults:
    def test_exec_fault_detected_at_trailing_commit(self):
        from repro.redundancy import Fault, FaultInjector
        from repro.redundancy.faults import EXEC_PRIMARY

        trace = get_trace("gzip", 4000)
        injector = FaultInjector([Fault(kind=EXEC_PRIMARY, seq=2000)])
        result = simulate(trace, "srt", fault_injector=injector)
        assert result.stats.check_mismatches >= 1
        assert result.stats.committed == len(trace)

    def test_fault_counts_match_die(self):
        """A failed check counts as a mismatch, not as a checked pair."""
        from repro.redundancy import Fault, FaultInjector
        from repro.redundancy.faults import EXEC_PRIMARY

        trace = get_trace("gzip", 4000)
        for model in ("die", "srt"):
            injector = FaultInjector([Fault(kind=EXEC_PRIMARY, seq=2000)])
            stats = simulate(trace, model, fault_injector=injector).stats
            assert (stats.pairs_checked, stats.check_mismatches) == (4000, 1), model

    def test_a7_experiment_renders(self):
        from repro.experiments import get_experiment

        result = get_experiment("A7").run(apps=("gzip",), n_insts=4000)
        assert "SRT" in result.render()

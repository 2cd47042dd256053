"""Bounded issue work: FU-blocked entries are not revisited every cycle.

On a DIE core the ALUs saturate and most of the issue window waits on a
busy unit.  The issue stage keeps one ready heap per FU class (a lane)
and drops a lane for the rest of the cycle after one failed claim, so
each cycle costs at most one failed ``_try_issue`` per lane:

    attempts <= issued + cycles * lanes

On the saturated run below, a select loop that re-examines every blocked
entry each cycle makes about one attempt per waiting entry per cycle,
more than ten times that bound.
"""

from __future__ import annotations

from repro.isa import FUClass, int_reg
from repro.redundancy import DIEPipeline
from repro.redundancy.clustered import DIEClusterSplitPipeline

from helpers import addi, straightline


def counting(base):
    """``base`` with a ``_try_issue`` call counter."""

    class Counting(base):
        attempts = 0

        def _try_issue(self, *args):
            self.attempts += 1
            return super()._try_issue(*args)

    return Counting


def independent_addis(n: int = 2_000):
    """Dependency-free ALU work: every entry is ready at dispatch."""
    return straightline([addi(int_reg(1 + (i % 8)), 0, i) for i in range(n)])


def run_counted(base, trace):
    pipeline = counting(base)(trace)
    pipeline.warm_up()
    stats = pipeline.run()
    return pipeline, stats


class TestBoundedIssueWork:
    def test_saturated_alus_straightline(self):
        trace = independent_addis()
        pipeline, stats = run_counted(DIEPipeline, trace)
        assert stats.committed == len(trace)
        # The window really is backed up behind the ALUs.
        assert stats.dispatch_stall_ruu > 0
        assert pipeline.attempts <= stats.issued + stats.cycles * len(FUClass)

    def test_clustered_lanes_per_cluster(self):
        trace = independent_addis()
        pipeline, stats = run_counted(DIEClusterSplitPipeline, trace)
        assert stats.committed == len(trace)
        lanes = len(pipeline._lanes)
        assert lanes == 2 * len(FUClass)
        assert pipeline.attempts <= stats.issued + stats.cycles * lanes

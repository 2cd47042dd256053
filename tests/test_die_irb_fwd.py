"""Tests for the forwarding ablation variant (DIE-IRB-Fwd)."""

from repro.core import DUPLICATE
from repro.reuse import DIEIRBFwdPipeline
from repro.simulation import simulate


class TestForwardingVariant:
    def test_duplicates_wake_from_their_own_stream(self, gzip_trace):
        assert not DIEIRBFwdPipeline.WAKE_FROM_PRIMARY
        pipeline = DIEIRBFwdPipeline(gzip_trace)
        pipeline.warm_up()
        links = []
        for _ in range(200):
            pipeline._step()
            links += [
                (producer, consumer)
                for producer in pipeline.ruu
                for consumer in producer.consumers
            ]
        assert any(c.stream == DUPLICATE == p.stream for p, c in links)
        # Only the single memory access crosses streams (DIE's rule).
        assert all(
            p.stream == c.stream or (p.dec.load and c.stream == DUPLICATE)
            for p, c in links
        )

    def test_commits_everything(self, gzip_trace):
        result = simulate(gzip_trace, "die-irb-fwd")
        assert result.stats.committed == len(gzip_trace)
        assert result.stats.check_mismatches == 0

    def test_forwarding_never_hurts(self, gzip_trace):
        plain = simulate(gzip_trace, "die-irb").stats.cycles
        fwd = simulate(gzip_trace, "die-irb-fwd").stats.cycles
        assert fwd <= plain * 1.02

    def test_still_reuses(self, gzip_trace):
        result = simulate(gzip_trace, "die-irb-fwd")
        assert result.stats.irb_reuse_hits > 0

    def test_bounded_by_sie(self, gzip_trace):
        sie = simulate(gzip_trace, "sie").ipc
        fwd = simulate(gzip_trace, "die-irb-fwd").ipc
        assert fwd <= sie * 1.001

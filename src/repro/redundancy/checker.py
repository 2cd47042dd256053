"""Commit-stage output checker for DIE and SRT."""

from __future__ import annotations

from ..core import DynInst


class CommitChecker:
    """Compares each (primary, duplicate) pair before retirement.

    The one output comparator of every redundant model: DIE checks each
    dispatched pair, SRT each trailing instruction against its leading
    copy.  Outputs compared are: the result value for computational
    instructions, the effective address for loads/stores (the only part
    both streams compute — the access itself happens once, outside the
    Sphere of Replication), and the resolved next PC for control flow.
    The verdicts are counted in ``SimStats`` (``pairs_checked``,
    ``check_mismatches``) by the model that acts on them.
    """

    def check(self, primary: DynInst, duplicate: DynInst) -> bool:
        """True if the pair's outputs agree (safe to retire)."""
        # A genuine pair shares one TraceInst object; only hand-built
        # pairs need the (slower) seq comparison to validate.
        if primary.trace is not duplicate.trace and primary.seq != duplicate.seq:
            raise ValueError(
                f"checker given mismatched pair: {primary.seq} vs {duplicate.seq}"
            )
        return primary.output() == duplicate.output()

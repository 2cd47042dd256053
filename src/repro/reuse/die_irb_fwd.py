"""DIE-IRB-Fwd: the forwarding variant the paper's design avoids.

In prior IRB proposals the buffer behaves like a functional unit: reuse
results broadcast into the issue window and wake dependents, which costs
extra tag/result buses and comparators in every window slot — the
quadratic wakeup/bypass growth the paper refuses to pay (Section 3.3).

This variant models what that complexity would buy: duplicates wake from
*their own stream's* producers (so an early reuse-completed duplicate
forwards to its dependents) instead of riding the primary stream's
broadcasts.  Comparing it with :class:`~repro.reuse.DIEIRBPipeline`
quantifies the IPC the paper forgoes — the design point is justified if
the difference is small.
"""

from __future__ import annotations

from .die_irb import DIEIRBPipeline


class DIEIRBFwdPipeline(DIEIRBPipeline):
    """DIE-IRB with IRB result forwarding into the issue window."""

    name = "DIE-IRB-Fwd"

    #: Each stream wakes from its own producers; a duplicate that
    #: reuse-completed early therefore forwards to duplicate dependents
    #: ahead of the primary's execution (the IRB acting as an FU).
    WAKE_FROM_PRIMARY = False

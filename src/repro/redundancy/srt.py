"""SRT-style thread-level temporal redundancy (the intro's comparator).

The paper positions instruction-level DIE against thread-level proposals
(AR-SMT, SRT [25, 26, 33]): two copies of the program run as SMT thread
contexts with *slack* between them, a branch-outcome queue (the trailing
thread never mispredicts) and a load-value queue (the trailing thread
never accesses the cache).  The literature found these perform well —
which is exactly why the paper calls instruction-level redundancy "more
difficult".  This model lets the repository quantify that contrast.

Model summary:

* one shared out-of-order core; fetch alternates between the leading and
  trailing contexts, one context per cycle;
* the leading context fetches through the core's own fetch group
  (prediction, I-cache, BTB and RAS); the trailing fetch follows it at a
  fixed slack (in instructions) and is steered by the branch-outcome
  queue: it never probes the predictor and never misfetches;
* trailing loads/stores perform address calculation only; values come
  from the load-value queue (memory is accessed once, outside the sphere
  of replication, as in DIE);
* the leading thread retires into a bounded output buffer; the trailing
  thread's retirement checks each instruction against its leading copy
  through the same :class:`~.checker.CommitChecker` DIE uses — a mismatch
  triggers the rewind of both contexts.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core import MachineConfig, OOOPipeline
from ..core.dyninst import DUPLICATE, PRIMARY, DynInst
from ..telemetry.events import NULL_TRACER
from ..workloads import Trace
from .checker import CommitChecker

#: Stream roles, aliased for readability: PRIMARY = leading thread.
LEADING = PRIMARY
TRAILING = DUPLICATE


class SRTPipeline(OOOPipeline):
    """Two redundant SMT contexts with slack fetch and value queues."""

    STREAMS = 2
    #: Two thread contexts, but each trace instruction dispatches as ONE
    #: RUU entry per context fetch (unlike DIE's paired dispatch).
    DISPATCH_ENTRIES = 1
    name = "SRT"

    #: Instructions the trailing fetch stays behind the leading one.
    SLACK = 64

    def __init__(self, trace: Trace, config: Optional[MachineConfig] = None):
        super().__init__(trace, config)
        self.checker = CommitChecker()
        # Second fetch cursor (base class fetch_index drives the leader).
        self.trail_index = 0
        self.trail_committed = 0
        # The output buffer: committed leading entries awaiting the
        # trailing check, by seq.
        self._output_buffer: Dict[int, DynInst] = {}

    # ==================================================================
    # Fetch: two contexts, one per cycle, slack-coupled
    # ==================================================================

    def _fetch(self, cycle: int) -> None:
        if len(self.decode_q) >= self._decode_cap:
            return
        total = len(self.trace)
        # Alternate which context gets the fetch slot; fall back to the
        # other when the preferred one cannot fetch this cycle.
        prefer_leading = cycle % 2 == 0
        order = (LEADING, TRAILING) if prefer_leading else (TRAILING, LEADING)
        for stream in order:
            if stream == LEADING:
                if self._can_fetch_leading(cycle) and self.fetch_index < total:
                    self._fetch_group(cycle)
                    return
            else:
                if self._can_fetch_trailing() and self.trail_index < total:
                    self._fetch_trailing(cycle)
                    return

    def _can_fetch_leading(self, cycle: int) -> bool:
        if self.fetch_blocked_seq is not None:
            self.stats.fetch_stall_mispredict += 1
            return False
        if cycle < self.fetch_resume_cycle:
            return False
        # The output buffer bounds how far the leader may run ahead.
        return self.fetch_index - self.trail_committed < self.SLACK * 4

    def _trail_limit(self) -> int:
        """How far the trailer may fetch: slack behind the leader, except
        at the end of the trace where the leader has nothing left."""
        if self.fetch_index >= len(self.trace):
            return self.fetch_index
        return self.fetch_index - self.SLACK

    def _can_fetch_trailing(self) -> bool:
        # Slack fetch: the trailer stays SLACK instructions behind, so
        # branch outcomes and load values are waiting when it arrives.
        return self.trail_index < self._trail_limit()

    def _fetch_trailing(self, cycle: int) -> None:
        insts = self.trace.insts
        dec_ops = self._decoded.ops
        budget = self.config.fetch_width
        dispatch_at = cycle + self.config.frontend_latency
        limit = self._trail_limit()
        index = self.trail_index
        while budget > 0 and index < limit:
            inst = insts[index]
            dec = dec_ops[index]
            # Branch outcomes come from the queue: no prediction, no
            # misfetch, and no I-cache charge (the line is resident from
            # the leader's pass).  The fetch is not counted: ``fetched``
            # counts the instruction stream once, as the leader fetches it.
            self.decode_q.append((dispatch_at, inst, TRAILING))
            index += 1
            budget -= 1
            if dec.branch and inst.taken:
                break
        self.trail_index = index

    # ==================================================================
    # Commit: leader fills the output buffer, trailer checks it
    # ==================================================================

    def _hook_commit(self, budget: int) -> int:
        used = 0
        ruu = self.ruu
        stats = self.stats
        tracer = self.tracer
        while ruu and used < budget:
            head = ruu[0]
            if not head.complete:
                break
            if head.stream == LEADING:  # simlint: disable=SL102
                # Leader commits are deliberately uncounted: each pair is
                # accounted exactly once, when the trailer checks it below.
                self._output_buffer[head.seq] = head
            else:
                lead = self._output_buffer.pop(head.seq)
                ok = self.checker.check(lead, head)
                if tracer is not NULL_TRACER:
                    tracer.emit_check(self.cycle, head.seq, ok)
                if not ok:
                    self._recover(head)
                    break
                # Counted only once the check passes, as DIE does: a
                # mismatch is counted in check_mismatches instead.
                stats.pairs_checked += 1
                self.trail_committed += 1
                self.committed_arch += 1
                stats.committed += 1
            ruu.popleft()
            self._retire(head)
            used += 1
        return used

    def _recover(self, trailing: DynInst) -> None:
        """Rewind both contexts from the diverging instruction."""
        self.stats.check_mismatches += 1
        self.stats.recoveries += 1
        self.stats.faults_detected += 1
        self.squash_and_refetch(trailing.seq)

    def squash_and_refetch(self, seq: int) -> None:
        super().squash_and_refetch(seq)
        self.trail_index = seq
        self._output_buffer = {
            s: lead for s, lead in self._output_buffer.items() if s < seq
        }

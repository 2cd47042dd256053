"""Dual Instruction Execution (DIE) pipeline, after Ray et al. [24].

Every fetched instruction dispatches as two adjacent RUU entries — a
primary and a duplicate — which issue and execute independently in
dataflow order of their own stream.  Memory is outside the Sphere of
Replication: the duplicate of a load/store performs only the address
calculation, and the access itself happens once.  At commit, each pair is
checked; a mismatch triggers an instruction rewind (the misspeculation
recovery mechanism) from the offending instruction.
"""

from __future__ import annotations

from typing import List, Optional

from ..core import MachineConfig, OOOPipeline
from ..core.dyninst import DUPLICATE, PRIMARY, DynInst
from ..isa import TraceInst
from ..telemetry.events import NULL_TRACER
from ..workloads import Trace
from .checker import CommitChecker


class DIEPipeline(OOOPipeline):
    """Instruction-level temporally redundant execution on the OOO core."""

    STREAMS = 2
    DISPATCH_ENTRIES = 2
    name = "DIE"

    def __init__(self, trace: Trace, config: Optional[MachineConfig] = None):
        super().__init__(trace, config)
        if self.config.decode_width < 2 or self.config.commit_width < 2:
            raise ValueError(
                "DIE dispatches and retires instructions in pairs: "
                "decode_width and commit_width must be >= 2 "
                f"(got {self.config.decode_width}/{self.config.commit_width})"
            )
        self.checker = CommitChecker()

    # ------------------------------------------------------------------

    def _hook_make_entries(self, inst: TraceInst, stream: int) -> List[DynInst]:
        primary = DynInst(inst, PRIMARY)
        duplicate = DynInst(inst, DUPLICATE)
        primary.pair = duplicate
        duplicate.pair = primary
        return [primary, duplicate]

    def _hook_effective_producer(self, inst: DynInst, producer: DynInst) -> DynInst:
        # Memory is outside the Sphere of Replication: the access happens
        # once.  A duplicate consuming a loaded value therefore waits for
        # the (single) data return — the primary load — not for the
        # duplicate load, which only computes the address.
        if inst.stream and producer.stream and producer.dec.load:
            assert producer.pair is not None  # every DIE entry is paired
            return producer.pair
        return producer

    def _hook_commit(self, budget: int) -> int:
        used = 0
        ruu = self.ruu
        checker = self.checker
        stats = self.stats
        tracer = self.tracer
        while len(ruu) >= 2 and used + 2 <= budget:
            primary = ruu[0]
            duplicate = primary.pair
            assert duplicate is not None  # every DIE entry is paired
            if not (primary.complete and duplicate.complete):
                break
            ok = checker.check(primary, duplicate)
            if tracer is not NULL_TRACER:
                tracer.emit_check(self.cycle, primary.seq, ok)
            if not ok:
                self._recover(primary)
                break
            ruu.popleft()
            ruu.popleft()
            self._retire(primary)
            self._retire(duplicate)
            self.committed_arch += 1
            stats.committed += 1
            stats.pairs_checked += 1
            used += 2
        return used

    # ------------------------------------------------------------------

    def _recover(self, primary: DynInst) -> None:
        """Instruction rewind: squash and refetch from the offending pair."""
        self.stats.check_mismatches += 1
        self.stats.recoveries += 1
        self.stats.faults_detected += 1
        self._on_mismatch(primary)
        self.squash_and_refetch(primary.seq)

    def _on_mismatch(self, primary: DynInst) -> None:
        """Extension point (DIE-IRB invalidates the IRB entry here)."""

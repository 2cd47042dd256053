"""Cycle-level out-of-order pipeline (the SIE baseline).

The model is a trace-driven reconstruction of SimpleScalar's
``sim-outorder`` RUU machine, which is the paper's experimental platform:

* **fetch** — up to ``fetch_width`` instructions per cycle, one taken
  branch per cycle, I-cache modelled, direction prediction + BTB + RAS at
  fetch time.  A mispredicted branch stops fetch until the branch resolves
  plus a redirect penalty (wrong-path instructions are not simulated, the
  standard trace-driven approximation).
* **dispatch** — up to ``decode_width`` RUU entries per cycle,
  ``frontend_latency`` cycles after fetch; register renaming reduces to
  producer-linking because the trace is already in dataflow order.
* **issue** — oldest-first wakeup/select over ready instructions, bounded
  by ``issue_width`` and functional-unit availability (unpipelined units
  block their unit for the full initiation interval).  Ready entries wait
  in one uid-ordered heap per FU class (an issue *lane*), so a class
  whose units are all busy costs one failed claim per cycle, not one per
  waiting entry.
* **memory** — loads do a 1-cycle address calculation on an integer ALU,
  then arbitrate for a D-cache port; latency comes from the two-level
  hierarchy + DRAM model.  Stores complete after address calculation and
  write the cache at commit.
* **commit** — in-order, up to ``commit_width`` per cycle.

Subclasses hook dispatch/commit/wakeup to build the DIE and DIE-IRB
machines; the hooks are the methods prefixed ``_hook_``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..branch import (
    BranchTargetBuffer,
    DirectionPredictor,
    ReturnAddressStack,
    make_predictor,
)
from ..isa import FUClass, NUM_REGS, TraceInst
from ..memory import MemoryHierarchy
from ..telemetry.events import (
    NULL_TRACER,
    STAGE_COMMIT,
    STAGE_COMPLETE,
    STAGE_DISPATCH,
    STAGE_FETCH,
    STAGE_ISSUE,
    STAGE_SQUASH,
    Tracer,
)
from ..workloads import Trace
from .config import MachineConfig
from .decoded import OP_META, DecodedOp, DecodedTrace, decode_trace
from .dyninst import PRIMARY, DynInst
from .fu import FUPool
from .stats import SimStats


class DeadlockError(RuntimeError):
    """The pipeline stopped making progress (a model bug, not a workload)."""


def functional_warm(
    hier: MemoryHierarchy,
    predictor: DirectionPredictor,
    btb: BranchTargetBuffer,
    trace: Trace,
    decoded: DecodedTrace,
    start: int,
    stop: int,
    last_block: Optional[int],
) -> Optional[int]:
    """Replay ``trace[start:stop]`` through caches, predictor and BTB.

    Training only, no timing and no statistics reset.  ``last_block`` is
    the I-cache block the previous replay ended on (``None`` to start
    fresh); the return value is the one this replay ends on, so
    consecutive segments fetch exactly as one replay would.
    """
    dec_ops = decoded.ops
    blocks = decoded.blocks
    warm_mem = decoded.warm_mem
    for index, inst in enumerate(trace.insts[start:stop], start):
        block = blocks[index]
        if block != last_block:
            hier.fetch(inst.pc, 0)
            last_block = block
        dec = dec_ops[index]
        if warm_mem[index]:
            if dec.load:
                hier.load(inst.mem_addr, 0)
            else:
                hier.store(inst.mem_addr, 0)
        if dec.cond_branch:
            predicted = predictor.predict(inst.pc)
            predictor.update(inst.pc, inst.taken, predicted)
            if inst.taken:
                btb.update(inst.pc, inst.next_pc)
        elif dec.branch and not dec.is_ret:
            btb.update(inst.pc, inst.next_pc)
    return last_block


#: One warm snapshot: the hierarchy, predictor and BTB after a replay,
#: plus the I-cache block that replay ended on (to continue it exactly).
_Snapshot = Tuple[MemoryHierarchy, DirectionPredictor, BranchTargetBuffer, Optional[int]]

#: The one-entry warm-state memo: ``(trace, key, snapshots)`` for the
#: most recently warmed trace.  ``key`` is ``(hierarchy config,
#: predictor kind)``, everything warm state depends on besides the trace
#: (the BTB takes no configuration); ``snapshots`` maps a prefix length
#: ``start`` to the state after a full lap of the trace plus
#: ``trace[:start]``.  Replaced by rebinding the whole tuple, so a reader
#: never sees a trace paired with another trace's snapshots.
_WARM: Tuple[Optional[Trace], Optional[Tuple[object, str]], Dict[int, _Snapshot]] = (
    None, None, {},
)


def warm_structures(
    trace: Trace, config: MachineConfig, start: int = 0
) -> Tuple[MemoryHierarchy, DirectionPredictor, BranchTargetBuffer]:
    """Fresh copies of the structures warmed by ``trace``'s full lap plus
    ``trace[:start]``.

    Every job on one trace under one hierarchy and predictor warms to the
    same state, so it is replayed once and snapshotted (see ``_WARM``);
    each caller gets exact ``copy()``s it may drive freely.  A snapshot
    for a new ``start`` continues the replay from the nearest earlier
    one, so a sampled run's sites, taken in trace order, cost one lap
    plus one prefix walk per trace, however many jobs share it.  The
    memo holds one trace at a time: its snapshots are about 200 KB each.
    Two threads that miss at once each replay and store equal states, so
    a race costs work, never a wrong state.
    """
    global _WARM
    key = (config.hierarchy, config.predictor)
    memo = _WARM
    if memo[0] is trace and memo[1] == key:
        snapshots = memo[2]
    else:
        hier = MemoryHierarchy(config.hierarchy)
        predictor = make_predictor(config.predictor)
        btb = BranchTargetBuffer()
        last = functional_warm(
            hier, predictor, btb, trace,
            decode_trace(trace, config.hierarchy.l1i.line_bytes),
            0, len(trace), None,
        )
        snapshots = {0: (hier, predictor, btb, last)}
        _WARM = (trace, key, snapshots)
    snapshot = snapshots.get(start)
    if snapshot is None:
        base = max(position for position in list(snapshots) if position <= start)
        hier, predictor, btb, last = snapshots[base]
        hier, predictor, btb = hier.copy(), predictor.copy(), btb.copy()
        last = functional_warm(
            hier, predictor, btb, trace,
            decode_trace(trace, config.hierarchy.l1i.line_bytes),
            base, start, last,
        )
        snapshot = snapshots[start] = (hier, predictor, btb, last)
    hier, predictor, btb, _ = snapshot
    return hier.copy(), predictor.copy(), btb.copy()


class OOOPipeline:
    """Single Instruction Execution (SIE): the unmodified OOO core."""

    #: number of architectural copies of each trace instruction
    STREAMS = 1

    #: RUU entries one trace instruction dispatches as (what
    #: ``_hook_make_entries`` returns).  Lets ``_dispatch`` test capacity
    #: *before* constructing entries it would immediately discard.
    DISPATCH_ENTRIES = 1

    #: True when primary-stream results wake the waiting entries of
    #: *both* streams (Section 3.3's DIE-IRB property): every entry then
    #: links its sources through the primary stream's producer table.
    #: False: each entry links through its own stream's table.
    WAKE_FROM_PRIMARY = False

    name = "SIE"

    #: Read by e2ebench's ``core.ff_frac``; always 0 (no cycle is skipped).
    ff_cycles = 0

    def __init__(self, trace: Trace, config: Optional[MachineConfig] = None):
        if len(trace) == 0:
            raise ValueError("cannot simulate an empty trace")
        self.trace = trace
        self.config = config if config is not None else MachineConfig.baseline()
        self.stats = SimStats()
        self.hier = MemoryHierarchy(self.config.hierarchy)
        self.predictor = make_predictor(self.config.predictor)
        self.btb = BranchTargetBuffer()
        self.ras = ReturnAddressStack(self.config.ras_depth)
        self.fu = FUPool(self.config.fu_counts)

        self.cycle = 0
        self.committed_arch = 0

        # Decoded-trace cache (core/decoded.py): per-instruction metadata
        # resolved once per (trace, line size) and shared across pipeline
        # instantiations; the stage methods below index these arrays
        # instead of re-deriving timings/blocks/categories per cycle.
        self._line_bytes = self.hier.l1i.config.line_bytes
        self._icache_hit_latency = self.hier.l1i.config.hit_latency
        self._decoded: DecodedTrace = decode_trace(trace, self._line_bytes)
        self._perfect_predictor = bool(getattr(self.predictor, "perfect", False))

        # Front end.
        self.fetch_index = 0
        self.fetch_resume_cycle = 0
        self.fetch_blocked_seq: Optional[int] = None
        self._last_fetch_block: Optional[int] = None
        # decode queue entries: (dispatchable_cycle, TraceInst, stream);
        # the stream is the fetching context's (always PRIMARY but in SRT).
        self.decode_q: Deque[Tuple[int, TraceInst, int]] = deque()
        # A shallow fetch/dispatch queue (2 fetch groups), as in
        # SimpleScalar's IFQ: deep queues would stretch branch-resolution
        # time artificially when dispatch bandwidth halves under DIE.
        self._decode_cap = self.config.fetch_width * 2

        # Back end.
        self.ruu: Deque[DynInst] = deque()
        self.lsq_count = 0
        self._events: List[Tuple[int, int, str, DynInst]] = []
        self._lay_out_lanes((self.fu,), self.config.issue_width)
        self.mem_queue: Deque[DynInst] = deque()
        # last producer of each register, per stream
        self._producers = [
            [None] * NUM_REGS for _ in range(self.STREAMS)
        ]  # type: List[List[Optional[DynInst]]]

        # Fault hook (installed by redundancy.faults.FaultInjector; typed
        # loosely because the base core must stay redundancy-agnostic).
        self.fault_injector: Optional[Any] = None
        self._retired_this_cycle: List[DynInst] = []

        # Telemetry sink.  The default is the shared falsy null tracer,
        # so every emit site below is guarded by one falsy check and the
        # uninstrumented path never constructs an event.
        self.tracer: Tracer = NULL_TRACER

    def _lay_out_lanes(self, pools: Sequence[FUPool], width: int) -> None:
        """One issue lane per (pool, FU class), each pool with its own budget.

        Lane ``p * len(FUClass) + fu`` is a (uid, entry) min-heap of ready
        entries of class ``fu`` for pool ``p``.  ``_lane_units[i]`` is the
        busy-until list lane i claims from (``None``: the entry needs no
        unit), ``_lane_groups[i]`` the issue budget it draws on (its pool),
        and ``_group_widths[p]`` that budget's per-cycle width.
        """
        self._lanes: List[List[Tuple[int, DynInst]]] = [
            [] for _ in pools for _ in FUClass
        ]
        self._lane_units: List[Optional[List[int]]] = [
            None if fu is FUClass.NONE else pool.units(fu)
            for pool in pools
            for fu in FUClass
        ]
        self._lane_groups: List[int] = [
            group for group in range(len(pools)) for _ in FUClass
        ]
        self._group_widths: List[int] = [width] * len(pools)

    # ==================================================================
    # Hooks overridden by DIE / DIE-IRB
    # ==================================================================

    def _hook_make_entries(self, inst: TraceInst, stream: int) -> List[DynInst]:
        """Build the RUU entries for one decode-queue entry of ``stream``."""
        return [DynInst(inst, stream)]

    def _hook_effective_producer(self, inst: DynInst, producer: DynInst) -> DynInst:
        """Map a named producer to the instruction that delivers the value."""
        return producer

    def _hook_wake_delay(self, producer: DynInst, consumer: DynInst) -> int:
        """Extra cycles before a woken consumer may proceed (clustering)."""
        return 0

    def _hook_on_ready(self, inst: DynInst, cycle: int) -> None:
        """Operands available; default: join its FU class's issue lane."""
        heapq.heappush(self._lanes[inst.trace.fu], (inst.uid, inst))

    def _hook_commit(self, budget: int) -> int:
        """Commit from the RUU head; returns slots consumed.

        Only called when the head has completed: no commit can happen
        otherwise, in any model.
        """
        used = 0
        ruu = self.ruu
        stats = self.stats
        while ruu and used < budget:
            head = ruu[0]
            if not head.complete:
                break
            ruu.popleft()
            self._retire(head)
            self.committed_arch += 1
            stats.committed += 1
            used += 1
        return used

    def _hook_post_commit(self, insts: List[DynInst]) -> None:
        """Called with every DynInst retired this cycle (IRB update point)."""

    def _hook_dispatch_blocked(self, inst: TraceInst) -> None:
        """Dispatch rejected the decode head (RUU/LSQ full) this cycle.

        ``_dispatch`` used to learn this by building the head's RUU
        entries and discarding them; the capacity pre-check skips that
        construction, so any side effects ``_hook_make_entries`` has
        beyond construction (the IRB models probe the buffer per dispatch
        attempt, which moves port accounting and statistics) MUST be
        replicated here by the subclass that introduces them.  The base
        construction is pure, so the default does nothing.
        """

    def _hook_tick(self) -> None:
        """Per-cycle housekeeping for extensions (IRB write drain)."""

    # ==================================================================
    # Warmup
    # ==================================================================

    def warm_up(self, source: Optional[Trace] = None, start: int = 0) -> None:
        """Functional warmup: train caches, predictor and BTB, no timing.

        The paper simulates SimPoint regions of long-running binaries, so
        its structures are warm; our traces are short, and cold-start
        misses would otherwise dominate.  This installs copies of the
        caches, predictor and BTB in the state a replay of ``source``
        (PCs, memory addresses and branch outcomes; default: the
        pipeline's own trace) leaves them in: one full lap, then
        ``source[:start]``.  Their statistics are then zeroed.  Call
        before :meth:`run`.  Sampled simulation passes the full trace and
        each site's start.  Pipelines share the replays through
        :func:`warm_structures`.
        """
        self.hier, self.predictor, self.btb = warm_structures(
            self.trace if source is None else source, self.config, start
        )
        self.hier.reset_stats()
        self.predictor.reset_stats()
        self.btb.reset_stats()

    # ==================================================================
    # Main loop
    # ==================================================================

    def run(self, max_cycles: Optional[int] = None) -> SimStats:
        """Simulate until the whole trace commits; returns statistics."""
        limit = max_cycles if max_cycles is not None else 1000 + 120 * len(self.trace)
        total = len(self.trace)
        while self.committed_arch < total:
            self._step()
            if self.cycle > limit:
                raise DeadlockError(self._deadlock_message(total))
        self.stats.cycles = self.cycle
        if self.fault_injector is not None:
            self.stats.faults_injected = self.fault_injector.log.injected
        return self.stats

    def _deadlock_message(self, total: int) -> str:
        return (
            f"{self.name}: no completion after {self.cycle} cycles "
            f"({self.committed_arch}/{total} committed)"
        )

    def _step(self) -> None:
        cycle = self.cycle
        if self.fault_injector is not None:
            self.fault_injector.on_tick(self)
        # Stage guards: a guarded stage whose guard fails would provably
        # do nothing this cycle, so its call is left out.
        events = self._events
        if events and events[0][0] <= cycle:
            self._process_events(cycle)
        ruu = self.ruu
        if ruu and ruu[0].complete:
            self._commit(cycle)
        if any(self._lanes):
            self._issue(cycle)
        if self.mem_queue:
            self._start_memory(cycle)
        decode_q = self.decode_q
        if decode_q and decode_q[0][0] <= cycle:
            self._dispatch(cycle)
        self._fetch(cycle)
        self._hook_tick()
        tracer = self.tracer
        if tracer is not NULL_TRACER:
            tracer.emit_cycle(cycle, len(self.ruu), self.lsq_count)
        self.cycle = cycle + 1

    # ==================================================================
    # Completion / writeback
    # ==================================================================

    def _process_events(self, cycle: int) -> None:
        events = self._events
        while events and events[0][0] <= cycle:
            when, _, kind, inst = heapq.heappop(events)
            if inst.squashed:
                continue
            if kind == "complete":
                self._complete(inst, when)
            elif kind == "addr_done":
                self.mem_queue.append(inst)
            elif kind == "reready":
                # An IRB lookup that outlived the operand wait: re-run the
                # wakeup decision now that the entry has arrived.
                if not inst.issued and not inst.complete:
                    self._hook_on_ready(inst, when)
            else:  # pragma: no cover - exhaustive
                raise ValueError(f"unknown event kind {kind!r}")

    def _complete(self, inst: DynInst, cycle: int) -> None:
        if self.fault_injector is not None:
            self.fault_injector.on_complete(inst, cycle)
        inst.complete = True
        tracer = self.tracer
        if tracer is not NULL_TRACER:
            trace = inst.trace
            tracer.emit_inst(
                STAGE_COMPLETE, cycle, trace.seq, trace.pc, trace.opcode,
                inst.stream, trace.fu,
            )
        for consumer in inst.consumers:
            if consumer.squashed:
                continue
            consumer.pending -= 1
            if consumer.pending == 0 and not consumer.issued:
                delay = self._hook_wake_delay(inst, consumer)
                if delay:
                    self._schedule(cycle + delay, "reready", consumer)
                else:
                    self._hook_on_ready(consumer, cycle)
        inst.consumers = []
        if inst.dec.branch:
            self._resolve_branch(inst, cycle)

    def _resolve_branch(self, inst: DynInst, cycle: int) -> None:
        if self.fetch_blocked_seq == inst.seq:
            self.fetch_blocked_seq = None
            self.fetch_resume_cycle = max(
                self.fetch_resume_cycle, cycle + self.config.mispredict_penalty
            )

    # ==================================================================
    # Commit
    # ==================================================================

    def _commit(self, cycle: int) -> None:
        retired = self._retired_this_cycle
        if retired:
            retired.clear()
        self._hook_commit(self.config.commit_width)
        if retired:
            self._hook_post_commit(retired)

    def _retire(self, inst: DynInst) -> None:
        if inst.in_lsq:
            self.lsq_count -= 1
            inst.in_lsq = False
        if inst.dec.store and inst.stream == PRIMARY:
            self.hier.store(inst.trace.mem_addr, self.cycle)
        self._retired_this_cycle.append(inst)
        tracer = self.tracer
        if tracer is not NULL_TRACER:
            trace = inst.trace
            tracer.emit_inst(
                STAGE_COMMIT, self.cycle, trace.seq, trace.pc, trace.opcode,
                inst.stream, trace.fu,
            )

    # ==================================================================
    # Issue
    # ==================================================================

    def _issue(self, cycle: int) -> None:
        # Selection is oldest-first (by uid) across every lane: a small
        # heap of lane heads merges the lanes in uid order.  A claim on a
        # class fails only when every unit is busy, and units only get
        # busier within a cycle, so a failed claim drops the whole lane
        # for the rest of the cycle and its blocked entries are not
        # visited again.  An entry of a full class uses no budget, so
        # this is exactly a visit of every ready entry in uid order.
        lanes = self._lanes
        heads = [(lane[0][0], index) for index, lane in enumerate(lanes) if lane]
        heapq.heapify(heads)
        lane_units = self._lane_units
        groups = self._lane_groups
        budgets = self._group_widths[:]
        try_issue = self._try_issue
        while heads:
            index = heads[0][1]
            lane = lanes[index]
            inst = lane[0][1]
            if inst.squashed or inst.issued:
                heapq.heappop(lane)
            elif try_issue(inst, cycle, lane_units[index]):
                heapq.heappop(lane)
                group = groups[index]
                budgets[group] -= 1
                if not budgets[group]:
                    # Budget spent: every lane drawing on it is done.
                    heads = [head for head in heads if groups[head[1]] != group]
                    heapq.heapify(heads)
                    continue
            else:
                heapq.heappop(heads)
                continue
            if lane:
                heapq.heapreplace(heads, (lane[0][0], index))
            else:
                heapq.heappop(heads)

    def _try_issue(
        self, inst: DynInst, cycle: int, units: Optional[List[int]]
    ) -> bool:
        """Issue ``inst`` on a free unit of ``units``; False if all busy.

        ``units`` is the busy-until list of the lane's pool (``None``:
        the entry needs no functional unit — a NOP, or an SIE-IRB reuse
        hit, which takes an issue slot but no unit).  Units are
        interchangeable and a unit free at ``cycle`` stays free, so the
        claim takes the least busy one and holds it for the op's
        initiation interval.
        """
        trace = inst.trace
        fu = trace.fu
        stats = self.stats
        if units is None:
            fu = FUClass.NONE
            inst.issued = True
            stats.issued += 1
            # A reused load skips only its address calculation; the
            # access still proceeds.
            kind = "addr_done" if inst.dec.load else "complete"
            heapq.heappush(self._events, (cycle + 1, inst.uid, kind, inst))
        else:
            if not units:
                return False
            free = min(units)
            if free > cycle:
                return False
            dec = inst.dec
            stream = inst.stream
            # Duplicates of loads/stores perform only address calculation.
            timing = dec.dup_timing if stream else dec.timing
            busy = timing.init_interval
            units[units.index(free)] = cycle + busy
            inst.issued = True
            stats.issued += 1
            counts = stats.fu_issued
            counts[fu] = counts.get(fu, 0) + 1
            counts = stats.fu_busy_cycles
            counts[fu] = counts.get(fu, 0) + busy
            if dec.load and not stream:
                # Address ready next cycle, then the access arbitrates for
                # a D-cache port.
                event = (cycle + 1, inst.uid, "addr_done", inst)
            else:
                event = (cycle + timing.latency, inst.uid, "complete", inst)
            heapq.heappush(self._events, event)
        tracer = self.tracer
        if tracer is not NULL_TRACER:
            tracer.emit_inst(
                STAGE_ISSUE, cycle, trace.seq, trace.pc, trace.opcode,
                inst.stream, fu,
            )
        return True

    def _schedule(self, when: int, kind: str, inst: DynInst) -> None:
        heapq.heappush(self._events, (when, inst.uid, kind, inst))

    # ==================================================================
    # Memory
    # ==================================================================

    def _start_memory(self, cycle: int) -> None:
        ports = self.config.cache_ports
        queue = self.mem_queue
        while ports > 0 and queue:
            inst = queue.popleft()
            if inst.squashed:
                continue
            latency = self.hier.load(inst.trace.mem_addr, cycle)
            self._schedule(cycle + latency, "complete", inst)
            ports -= 1

    # ==================================================================
    # Dispatch
    # ==================================================================

    def _dispatch(self, cycle: int) -> None:
        config = self.config
        budget = config.decode_width
        decode_q = self.decode_q
        ruu = self.ruu
        stats = self.stats
        ruu_size = config.ruu_size
        lsq_size = config.lsq_size
        need = self.DISPATCH_ENTRIES
        producers = self._producers
        shared_table = producers[PRIMARY] if self.WAKE_FROM_PRIMARY else None
        effective_producer = self._hook_effective_producer
        on_ready = self._hook_on_ready
        tracer = self.tracer
        tracing = tracer is not NULL_TRACER
        while budget > 0 and decode_q:
            ready_at, trace_inst, stream = decode_q[0]
            if ready_at > cycle:
                break
            if need > budget:
                # Construction side effects (IRB probe accounting) happen
                # even for a group that does not fit the cycle's budget.
                self._hook_make_entries(trace_inst, stream)
                break
            if len(ruu) + need > ruu_size:
                stats.dispatch_stall_ruu += 1
                self._hook_dispatch_blocked(trace_inst)
                break
            if self.lsq_count >= lsq_size and OP_META[trace_inst.opcode].mem:
                stats.dispatch_stall_lsq += 1
                self._hook_dispatch_blocked(trace_inst)
                break
            entries = self._hook_make_entries(trace_inst, stream)
            decode_q.popleft()
            src1 = trace_inst.src1
            src2 = trace_inst.src2
            # Two-phase dispatch: link every entry's sources before
            # recording any entry's destination.  A pair's duplicate must
            # see the producer table as it was *before* its own pair's
            # write — both copies sit at the same dataflow position.
            for entry in entries:
                ruu.append(entry)
                stats.dispatched += 1
                budget -= 1
                if tracing:
                    tracer.emit_inst(
                        STAGE_DISPATCH, cycle, trace_inst.seq, trace_inst.pc,
                        trace_inst.opcode, entry.stream, trace_inst.fu,
                    )
                if entry.dec.mem and not entry.stream:
                    self.lsq_count += 1
                    entry.in_lsq = True
                # Register 0 is hardwired: it never waits on a producer.
                table = (
                    producers[entry.stream] if shared_table is None else shared_table
                )
                pending = 0
                if src1:
                    producer = table[src1]
                    if producer is not None:
                        producer = effective_producer(entry, producer)
                        if not producer.complete and not producer.squashed:
                            pending += 1
                            producer.consumers.append(entry)
                if src2:
                    producer = table[src2]
                    if producer is not None:
                        producer = effective_producer(entry, producer)
                        if not producer.complete and not producer.squashed:
                            pending += 1
                            producer.consumers.append(entry)
                if pending:
                    entry.pending = pending
                else:
                    on_ready(entry, cycle + 1)
            dst = trace_inst.dst
            if dst:
                for entry in entries:
                    producers[entry.stream][dst] = entry

    # ==================================================================
    # Fetch
    # ==================================================================

    def _fetch(self, cycle: int) -> None:
        if self.fetch_blocked_seq is not None:
            self.stats.fetch_stall_mispredict += 1
            return
        if cycle < self.fetch_resume_cycle:
            return
        if len(self.decode_q) >= self._decode_cap:
            return
        if self.fetch_index < len(self.trace.insts):
            self._fetch_group(cycle)

    def _fetch_group(self, cycle: int) -> None:
        """Fetch one group of the primary context from ``fetch_index``.

        The caller has checked the guards (redirect, resume cycle, queue
        room, instructions left).  The group ends at ``fetch_width``
        instructions, an I-cache miss, a mispredicted branch or the first
        taken (or predicted-taken) branch.
        """
        decode_q = self.decode_q
        insts = self.trace.insts
        total = len(insts)
        index = self.fetch_index
        decoded = self._decoded
        dec_ops = decoded.ops
        blocks = decoded.blocks
        stats = self.stats
        budget = self.config.fetch_width
        dispatch_at = cycle + self.config.frontend_latency
        tracer = self.tracer
        tracing = tracer is not NULL_TRACER
        while budget > 0 and index < total:
            inst = insts[index]
            block = blocks[index]
            if block != self._last_fetch_block:
                latency = self.hier.fetch(inst.pc, cycle)
                self._last_fetch_block = block
                if latency > self._icache_hit_latency:
                    # I-cache miss: this group ends; the line arrives later.
                    self.fetch_resume_cycle = cycle + latency
                    stats.fetch_stall_icache += 1
                    self.fetch_index = index
                    return
            dec = dec_ops[index]
            if dec.branch:
                mispredicted, predicted_taken = self._predict(inst, dec)
            else:
                mispredicted = predicted_taken = False
            decode_q.append((dispatch_at, inst, PRIMARY))
            stats.fetched += 1
            index += 1
            budget -= 1
            if tracing:
                tracer.emit_inst(
                    STAGE_FETCH, cycle, inst.seq, inst.pc, inst.opcode,
                    PRIMARY, inst.fu,
                )
            if mispredicted:
                self.fetch_blocked_seq = inst.seq
                self.fetch_index = index
                return
            if dec.branch and (predicted_taken or inst.taken):
                # One taken (or predicted-taken) branch per fetch group.
                self.fetch_index = index
                return
        self.fetch_index = index

    def _predict(self, inst: TraceInst, dec: DecodedOp) -> Tuple[bool, bool]:
        """Fetch-time prediction for a branch ``inst``.

        Returns (mispredicted, predicted_taken).  Callers pre-filter on
        ``dec.branch``; non-branches never reach here.
        """
        self.stats.branches += 1
        if self._perfect_predictor:
            if dec.is_call:
                self.ras.push(inst.pc + 4)
            return False, inst.taken
        # Predictor/BTB state is trained immediately at fetch.  Training at
        # branch resolution would make prediction accuracy depend on the
        # back-end timing model, which would confound every SIE/DIE/DIE-IRB
        # comparison; in-order fetch-time training keeps the front end
        # identical across models (a standard trace-driven approximation —
        # the *penalty* still depends on when the branch resolves).
        if dec.cond_branch:
            predicted = self.predictor.predict(inst.pc)
            wrong_target = False
            if predicted:
                target = self.btb.lookup(inst.pc)
                if target is None:
                    predicted = False  # cannot redirect without a target
                elif target != inst.next_pc:
                    wrong_target = True
            self.predictor.update(inst.pc, inst.taken, predicted)
            if inst.taken:
                self.btb.update(inst.pc, inst.next_pc)
            mispredicted = (predicted != inst.taken) or (
                predicted and inst.taken and wrong_target
            )
            if mispredicted:
                self.stats.mispredicts += 1
            return mispredicted, predicted
        if dec.is_ret:
            predicted_pc = self.ras.pop()
            mispredicted = predicted_pc != inst.next_pc
            if mispredicted:
                self.stats.mispredicts += 1
            return mispredicted, True
        # Direct JUMP/CALL: the BTB provides the target at fetch.
        if dec.is_call:
            self.ras.push(inst.pc + 4)
        target = self.btb.lookup(inst.pc)
        if target != inst.next_pc:
            self.btb.update(inst.pc, inst.next_pc)
            self.stats.mispredicts += 1
            return True, True
        return False, True

    # ==================================================================
    # Squash (fault-recovery rewind)
    # ==================================================================

    def squash_and_refetch(self, seq: int) -> None:
        """Rewind to trace position ``seq`` (the paper's instruction-rewind).

        Everything at or younger than ``seq`` is squashed and refetched,
        exactly like a misspeculation recovery.
        """
        tracer = self.tracer
        for inst in self.ruu:
            inst.squashed = True
            if tracer is not NULL_TRACER:
                trace = inst.trace
                tracer.emit_inst(
                    STAGE_SQUASH, self.cycle, trace.seq, trace.pc,
                    trace.opcode, inst.stream, trace.fu,
                )
        self.ruu.clear()
        for _, __, ___, inst in self._events:
            inst.squashed = True
        self._events = []
        for lane in self._lanes:
            for _, inst in lane:
                inst.squashed = True
            lane.clear()
        for inst in self.mem_queue:
            inst.squashed = True
        self.mem_queue.clear()
        self.decode_q.clear()
        self.lsq_count = 0
        self._producers = [[None] * NUM_REGS for _ in range(self.STREAMS)]
        self.fetch_index = seq
        self.fetch_blocked_seq = None
        self._last_fetch_block = None
        self.fetch_resume_cycle = (
            self.cycle + self.config.mispredict_penalty + self.config.frontend_latency
        )

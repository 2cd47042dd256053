"""Histogram and timeline instruments beyond the flat ``SimStats`` counters.

:class:`MetricsCollector` is a tracer that aggregates the event stream
into distribution data while the simulation runs:

* RUU / LSQ occupancy timelines (one sample per cycle);
* per-cycle issue-bandwidth histograms, split primary vs duplicate
  stream — the paper's Section 2.2 ALU-contention diagnosis, made
  measurable (a DIE-IRB run should show the duplicate stream's issue
  demand collapsing as reuse hits bypass the FUs);
* IRB reuse-distance histogram (cycles between an entry's commit-side
  install and the reuse hit it serves) and per-opcode reuse breakdowns;
* issue→check latency distribution (primary issue to commit-stage pair
  check, DIE modes);
* squash / fault-outcome counts.

Everything here is observation only: collectors never feed state back
into the timing model, and a run with any tracer attached commits the
exact same cycle count as one without.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa import FUClass, Opcode
from .events import (
    IRB_LOOKUP,
    IRB_PC_HIT,
    IRB_REUSE_HIT,
    IRB_WRITE,
    STAGE_COMMIT,
    STAGE_ISSUE,
    STAGE_SQUASH,
    CheckEvent,
    CycleEvent,
    DivergenceEvent,
    Event,
    FaultEvent,
    InstEvent,
    IRBEvent,
    PhaseEvent,
    Tracer,
)

_PRIMARY = 0  # mirrors core.dyninst.PRIMARY without importing the core


class Histogram:
    """Counting histogram over non-negative integer observations."""

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.total = 0

    def add(self, value: int, weight: int = 1) -> None:
        self.counts[value] = self.counts.get(value, 0) + weight
        self.total += weight

    @property
    def mean(self) -> float:
        if not self.total:
            return 0.0
        return sum(v * c for v, c in self.counts.items()) / self.total

    @property
    def max(self) -> int:
        return max(self.counts) if self.counts else 0

    @property
    def min(self) -> int:
        return min(self.counts) if self.counts else 0

    def percentile(self, p: float) -> int:
        """Smallest value with at least ``p`` (0..1) of the mass at/below it."""
        if not self.total:
            return 0
        need = p * self.total
        seen = 0
        for value in sorted(self.counts):
            seen += self.counts[value]
            if seen >= need:
                return value
        return self.max

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.total,
            "mean": round(self.mean, 4),
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = dict(self.summary())
        out["counts"] = {str(v): c for v, c in sorted(self.counts.items())}
        return out


class Timeline:
    """A per-cycle sampled series with bounded export size.

    Samples are kept at ``stride`` spacing; :meth:`summary` additionally
    decimates to at most ``max_points`` for compact profiles.
    """

    def __init__(self, stride: int = 1) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride
        self.samples: List[Tuple[int, int]] = []
        self._seen = 0
        self._running_sum = 0
        self._running_max = 0

    def sample(self, cycle: int, value: int) -> None:
        self._running_sum += value
        if value > self._running_max:
            self._running_max = value
        if self._seen % self.stride == 0:
            self.samples.append((cycle, value))
        self._seen += 1

    @property
    def mean(self) -> float:
        return self._running_sum / self._seen if self._seen else 0.0

    @property
    def peak(self) -> int:
        return self._running_max

    def series(self, max_points: int = 512) -> List[Tuple[int, int]]:
        if len(self.samples) <= max_points:
            return list(self.samples)
        step = len(self.samples) / max_points
        return [self.samples[int(i * step)] for i in range(max_points)]

    def summary(self, max_points: int = 512) -> Dict[str, object]:
        return {
            "samples": self._seen,
            "mean": round(self.mean, 4),
            "peak": self.peak,
            "series": [[c, v] for c, v in self.series(max_points)],
        }


class MetricsCollector(Tracer):
    """Aggregates the event stream into histograms and timelines."""

    def __init__(self, timeline_stride: int = 1) -> None:
        # Occupancy timelines.
        self.ruu_occupancy = Timeline(timeline_stride)
        self.lsq_occupancy = Timeline(timeline_stride)
        # Per-cycle issue bandwidth, split by stream.  Zero-issue cycles
        # are folded in at each CycleEvent, so the histograms cover every
        # simulated cycle, not just the busy ones.
        self.issue_bw_primary = Histogram()
        self.issue_bw_duplicate = Histogram()
        self._issued_this_cycle = [0, 0]
        # IRB funnel.
        self.reuse_distance = Histogram()
        self.opcode_reuse: Dict[str, Dict[str, int]] = {}
        self._last_install: Dict[int, int] = {}
        # Issue -> commit-check latency (DIE modes; empty for SIE).
        self.check_latency = Histogram()
        self._issue_cycle: Dict[int, int] = {}
        # Scalar outcomes.
        self.squashes = 0
        self.checks_ok = 0
        self.checks_failed = 0
        self.fault_outcomes: Dict[str, int] = {}
        self.divergences: Dict[str, int] = {}
        self.cycles_observed = 0
        # Sampled-simulation region boundaries, in emission order.
        self.phases: List[PhaseEvent] = []

    # ------------------------------------------------------------------

    def emit(self, event: Event) -> None:
        # Delivered objects (a tee's, a replay's) go to the typed methods
        # the hot emit sites call directly, so both paths aggregate alike.
        if isinstance(event, CycleEvent):
            self.emit_cycle(event.cycle, event.ruu, event.lsq)
        elif isinstance(event, InstEvent):
            self.emit_inst(
                event.kind, event.cycle, event.seq, event.pc, event.opcode,
                event.stream, event.fu,
            )
        elif isinstance(event, IRBEvent):
            self.emit_irb(event.kind, event.cycle, event.pc, event.opcode)
        elif isinstance(event, CheckEvent):
            self.emit_check(event.cycle, event.seq, event.ok)
        elif isinstance(event, FaultEvent):
            key = event.outcome
            self.fault_outcomes[key] = self.fault_outcomes.get(key, 0) + 1
        elif isinstance(event, DivergenceEvent):
            name = event.invariant
            self.divergences[name] = self.divergences.get(name, 0) + 1
        elif isinstance(event, PhaseEvent):
            self.phases.append(event)

    # ------------------------------------------------------------------

    def emit_cycle(self, cycle: int, ruu: int, lsq: int) -> None:
        self.ruu_occupancy.sample(cycle, ruu)
        self.lsq_occupancy.sample(cycle, lsq)
        issued = self._issued_this_cycle
        self.issue_bw_primary.add(issued[0])
        self.issue_bw_duplicate.add(issued[1])
        issued[0] = issued[1] = 0
        self.cycles_observed += 1

    def emit_inst(
        self,
        kind: str,
        cycle: int,
        seq: int,
        pc: int,
        opcode: Opcode,
        stream: int,
        fu: FUClass,
    ) -> None:
        if kind == STAGE_ISSUE:
            stream = 1 if stream else 0
            self._issued_this_cycle[stream] += 1
            if stream == _PRIMARY:
                self._issue_cycle[seq] = cycle
        elif kind == STAGE_COMMIT:
            if stream == _PRIMARY:
                self._issue_cycle.pop(seq, None)
        elif kind == STAGE_SQUASH:
            self.squashes += 1
            if stream == _PRIMARY:
                self._issue_cycle.pop(seq, None)

    def emit_irb(
        self, kind: str, cycle: int, pc: int, opcode: Optional[Opcode] = None
    ) -> None:
        if kind == IRB_WRITE:
            self._last_install[pc] = cycle
        elif kind == IRB_REUSE_HIT:
            installed = self._last_install.get(pc)
            if installed is not None:
                self.reuse_distance.add(cycle - installed)
        if opcode is not None and kind in (IRB_LOOKUP, IRB_PC_HIT, IRB_REUSE_HIT):
            bucket = self.opcode_reuse.setdefault(
                opcode.name, {"lookups": 0, "pc_hits": 0, "reuse_hits": 0}
            )
            if kind == IRB_LOOKUP:
                bucket["lookups"] += 1
            elif kind == IRB_PC_HIT:
                bucket["pc_hits"] += 1
            else:
                bucket["reuse_hits"] += 1

    def emit_check(self, cycle: int, seq: int, ok: bool) -> None:
        if ok:
            self.checks_ok += 1
        else:
            self.checks_failed += 1
        issued = self._issue_cycle.get(seq)
        if issued is not None:
            self.check_latency.add(cycle - issued)

    # ------------------------------------------------------------------

    def snapshot(self, max_points: int = 512) -> Dict[str, object]:
        """A JSON-ready aggregate view (the profile's ``metrics`` block)."""
        return {
            "cycles_observed": self.cycles_observed,
            "ruu_occupancy": self.ruu_occupancy.summary(max_points),
            "lsq_occupancy": self.lsq_occupancy.summary(max_points),
            "issue_bw_primary": self.issue_bw_primary.to_dict(),
            "issue_bw_duplicate": self.issue_bw_duplicate.to_dict(),
            "reuse_distance": self.reuse_distance.to_dict(),
            "check_latency": self.check_latency.to_dict(),
            "opcode_reuse": {
                name: dict(bucket)
                for name, bucket in sorted(self.opcode_reuse.items())
            },
            "squashes": self.squashes,
            "checks_ok": self.checks_ok,
            "checks_failed": self.checks_failed,
            "fault_outcomes": dict(sorted(self.fault_outcomes.items())),
            "divergences": dict(sorted(self.divergences.items())),
            "phases": [
                {
                    "cycle": p.cycle,
                    "phase": p.phase,
                    "start_seq": p.start_seq,
                    "end_seq": p.end_seq,
                    "weight": round(p.weight, 6),
                }
                for p in self.phases
            ],
        }


def duplicate_service_split(collector: MetricsCollector) -> Optional[Dict[str, float]]:
    """How the duplicate stream was served: FU issue vs IRB reuse.

    Returns ``None`` when the run had no duplicate stream activity.
    """
    issued = collector.issue_bw_duplicate
    fu_served = sum(v * c for v, c in issued.counts.items())
    reused = sum(b["reuse_hits"] for b in collector.opcode_reuse.values())
    total = fu_served + reused
    if not total:
        return None
    return {
        "fu_issued": fu_served,
        "irb_reused": reused,
        "reused_fraction": round(reused / total, 4),
    }

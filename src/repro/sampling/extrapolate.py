"""Sampled simulation: cycle core on chunk sites, then weighted
extrapolation back to whole-program statistics.

:func:`run_sampled` is the sampled counterpart of
:func:`repro.simulation.runner.simulate`: same inputs plus a
:class:`~repro.sampling.plan.SamplingPlan`, same ``SimStats``-shaped
output.  Per site it materializes the re-sequenced site trace,
functionally warms the pipeline (full-trace lap plus the prefix up to
the site by default — zero cycle-core cost), runs the timing model over
the site with a window tracer attached, and carves the site run into
per-region measurements.  The whole-program estimate is then the
``V_j``-weighted extrapolation of the per-region rates
(:mod:`.regions`).

Counter attribution inside a site (see ``docs/SAMPLING.md``):

* **cycles** — the region's commit window, ``commit(last) -
  commit(first) + 1``; pad intervals and pipeline drain fall outside
  every window by construction.
* **committed** — exact: a region commits exactly its architected
  instructions.  Because the weights sum to 1, ``committed``
  extrapolates to exactly the full trace length.
* **fetched / dispatched / issued / fu_issued** — per-region
  :class:`InstEvent` counts binned by architected ``seq`` (both streams,
  matching how the full-run counters count DIE pairs twice).
* **pairs_checked / check_mismatches** — :class:`CheckEvent` counts
  binned by ``seq``: passing checks count in ``pairs_checked`` and
  failing ones in ``check_mismatches``, as in a full DIE or SRT run.
* **irb_*** — :class:`IRBEvent` counts binned by the region's commit
  *cycle* window (the IRB observes pcs, not seqs).
* **stalls, branches, mispredicts, recoveries, fu_busy_cycles** —
  cycle-share: the site total scaled by the region's share of the site
  run's cycles.  These are per-cycle phenomena with no per-event seq.
* **faults never extrapolate** (:data:`SAMPLED_ONLY_FIELDS`).  Fault
  plans address absolute trace positions and their architectural effects
  propagate past region boundaries, so ``run_sampled`` takes no injector
  and the campaign layer rejects jobs combining ``faults`` with
  ``sampling``.

Derived ratios (IPC, mispredict rate, IRB hit rates) need no policy of
their own — they recompute from the extrapolated counters.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

from ..core import MachineConfig, SimStats
from ..isa import FUClass, Opcode
from ..reuse import IRBConfig
from ..simulation.runner import make_pipeline
from ..telemetry.events import (
    IRB_LOOKUP,
    IRB_PC_HIT,
    IRB_PORT_STARVED,
    IRB_REUSE_HIT,
    IRB_WRITE,
    IRB_WRITE_DROP,
    NULL_TRACER,
    STAGE_COMMIT,
    STAGE_DISPATCH,
    STAGE_FETCH,
    STAGE_ISSUE,
    CheckEvent,
    Event,
    InstEvent,
    IRBEvent,
    PhaseEvent,
    Tracer,
)
from ..workloads import Trace
from .plan import SamplingPlan
from .regions import (
    Region,
    RegionSelection,
    Site,
    phase_of,
    select_regions,
    site_trace,
)

#: SimStats counters that are *sampled-only*: they stay zero in an
#: extrapolated result because scaling them is not meaningful (see the
#: module docstring on fault plans).
SAMPLED_ONLY_FIELDS = ("faults_injected", "faults_detected")

#: Counters attributed to a region by its share of the site's cycles
#: (per-cycle phenomena without a per-event architected position).
_CYCLE_SHARE_FIELDS = (
    "fetch_stall_mispredict",
    "fetch_stall_icache",
    "dispatch_stall_ruu",
    "dispatch_stall_lsq",
    "branches",
    "mispredicts",
    "recoveries",
)

_IRB_FIELD_OF = {
    IRB_LOOKUP: "irb_lookups",
    IRB_PC_HIT: "irb_pc_hits",
    IRB_REUSE_HIT: "irb_reuse_hits",
    IRB_PORT_STARVED: "irb_port_starved",
    IRB_WRITE: "irb_writes",
    IRB_WRITE_DROP: "irb_write_drops",
}


#: The stage kinds carving bins by ``seq``; commits feed only
#: ``commit_cycle``, and complete/squash events are not read at all.
_CARVED_STAGES = frozenset((STAGE_FETCH, STAGE_DISPATCH, STAGE_ISSUE))


class WindowTracer(Tracer):
    """Collects the per-event stream of one site run for window carving.

    Sites are a few hundred to a few thousand instructions, so the raw
    event lists stay small; full runs never attach this tracer.  The
    typed methods append the fields carving reads without building an
    event object; :meth:`emit` routes a delivered event (a tee's, or a
    replay's) to the same methods, so both paths record the same lists.
    """

    def __init__(self) -> None:
        self.commit_cycle: Dict[int, int] = {}
        self.stage_seqs: List[tuple] = []  # (kind, seq, fu) for _CARVED_STAGES
        self.checks: List[tuple] = []  # (seq, ok)
        self.irb: List[tuple] = []  # (kind, cycle)

    def emit(self, event: Event) -> None:
        if isinstance(event, InstEvent):
            self.emit_inst(
                event.kind, event.cycle, event.seq, event.pc, event.opcode,
                event.stream, event.fu,
            )
        elif isinstance(event, CheckEvent):
            self.emit_check(event.cycle, event.seq, event.ok)
        elif isinstance(event, IRBEvent):
            self.emit_irb(event.kind, event.cycle, event.pc, event.opcode)

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
        if kind in _CARVED_STAGES:
            self.stage_seqs.append((kind, seq, fu))
        elif kind == STAGE_COMMIT and stream == 0:
            self.commit_cycle[seq] = cycle

    def emit_irb(
        self, kind: str, cycle: int, pc: int, opcode: Optional[Opcode] = None
    ) -> None:
        self.irb.append((kind, cycle))

    def emit_check(self, cycle: int, seq: int, ok: bool) -> None:
        self.checks.append((seq, ok))

    def emit_cycle(self, cycle: int, ruu: int, lsq: int) -> None:
        pass


@dataclass
class RegionResult:
    """One region's raw (un-scaled) measurement carved from its site."""

    region: Region
    stats: SimStats


@dataclass
class SampledRunResult:
    """Everything one sampled run produced.

    ``stats`` is the extrapolated whole-program estimate;
    ``region_results`` keep the raw per-region counters (trace-position
    order) for error analysis and reporting.
    """

    model: str
    workload: str
    stats: SimStats
    plan: SamplingPlan
    selection: RegionSelection
    region_results: List[RegionResult]

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def simulated_insts(self) -> int:
        """Dynamic instructions the cycle core actually simulated."""
        return self.selection.simulated_insts


def _carve_site(
    site: Site,
    selection: RegionSelection,
    site_stats: SimStats,
    tracer: WindowTracer,
) -> List[RegionResult]:
    """Split one site run into per-region measurements.

    Each event list is scanned once.  Stage and check events are binned
    by ``seq`` into the measured region that holds it (pad seqs hold
    none); IRB events are counted per commit-cycle window by bisection
    over their sorted cycles, since adjacent windows may share a cycle.
    """
    regions = {r.index: r for r in selection.regions}
    results: List[RegionResult] = []
    # owner[seq]: the stats of the measured region holding ``seq``.
    owner: List[Optional[SimStats]] = [None] * site.length
    for index in site.measured:
        region = regions[index]
        stats = SimStats()
        stats.committed = region.length
        first = region.start - site.start
        owner[first:first + region.length] = [stats] * region.length
        results.append(RegionResult(region=region, stats=stats))

    for kind, seq, fu in tracer.stage_seqs:
        stats = owner[seq]
        if stats is None:
            continue
        if kind == STAGE_FETCH:
            stats.fetched += 1
        elif kind == STAGE_DISPATCH:
            stats.dispatched += 1
        elif kind == STAGE_ISSUE:
            stats.issued += 1
            if fu is not FUClass.NONE:  # counted per unit, as in a full run
                stats.fu_issued[fu] = stats.fu_issued.get(fu, 0) + 1
    for seq, ok in tracer.checks:
        stats = owner[seq]
        if stats is None:
            continue
        if ok:
            stats.pairs_checked += 1
        else:
            stats.check_mismatches += 1
    irb_cycles: Dict[str, List[int]] = {}
    for kind, cycle in tracer.irb:
        if kind in _IRB_FIELD_OF:
            irb_cycles.setdefault(kind, []).append(cycle)
    for cycles in irb_cycles.values():
        cycles.sort()

    site_cycles = max(1, site_stats.cycles)
    final_cycle = site_stats.cycles
    for result in results:
        region, stats = result.region, result.stats
        first = region.start - site.start
        last = region.end - 1 - site.start
        # max_cycles truncation can leave tail instructions uncommitted;
        # close the window at the run's final cycle in that case.
        c0 = tracer.commit_cycle.get(first)
        c1 = tracer.commit_cycle.get(last, final_cycle)
        if c0 is None:
            c0 = min(
                (
                    c
                    for s, c in tracer.commit_cycle.items()
                    if first <= s <= last
                ),
                default=final_cycle,
            )
        stats.cycles = c1 - c0 + 1
        for kind, cycles in irb_cycles.items():
            count = bisect_right(cycles, c1) - bisect_left(cycles, c0)
            setattr(stats, _IRB_FIELD_OF[kind], max(0, count))
        share = stats.cycles / site_cycles
        for name in _CYCLE_SHARE_FIELDS:
            setattr(stats, name, getattr(site_stats, name) * share)
        stats.fu_busy_cycles = {
            fu: busy * share for fu, busy in site_stats.fu_busy_cycles.items()
        }
    return results


def extrapolate_stats(
    region_results: List[RegionResult], total_insts: int
) -> SimStats:
    """Reconstruct whole-program :class:`SimStats` from region runs.

    Every counter extrapolates by weighted per-instruction rate:
    ``round(sum_j V_j * c_j / n_j * N)``, clamped at zero as a
    belt-and-braces guard (weights are non-negative by construction
    since the control variate is dropped when it over-corrects past
    zero).  Since each region
    commits exactly its ``n_j`` instructions and the weights sum to 1,
    ``committed`` extrapolates to exactly ``N``; ``cycles`` is the
    validated CPI estimator times ``N``.  Pure function of the region
    outcomes — exercised directly by the unit tests with synthetic
    counters.
    """
    estimate = SimStats()
    scalar_fields = [
        f.name
        for f in fields(SimStats)
        if f.name not in ("fu_issued", "fu_busy_cycles")
        and f.name not in SAMPLED_ONLY_FIELDS
    ]
    for name in scalar_fields:
        rate = sum(
            r.region.weight * getattr(r.stats, name) / r.region.length
            for r in region_results
            if r.region.length
        )
        setattr(estimate, name, max(0, round(rate * total_insts)))
    for dict_name in ("fu_issued", "fu_busy_cycles"):
        combined: Dict[FUClass, float] = {}
        for r in region_results:
            if not r.region.length:
                continue
            scale = r.region.weight / r.region.length
            for fu, count in getattr(r.stats, dict_name).items():
                combined[fu] = combined.get(fu, 0.0) + count * scale
        setattr(
            estimate,
            dict_name,
            {
                fu: max(0, round(rate * total_insts))
                for fu, rate in combined.items()
            },
        )
    return estimate


def run_sampled(
    trace: Trace,
    plan: SamplingPlan,
    model: str = "sie",
    config: Optional[MachineConfig] = None,
    irb_config: Optional[IRBConfig] = None,
    max_cycles: Optional[int] = None,
    warmup: bool = True,
    tracer: Optional[Tracer] = None,
) -> SampledRunResult:
    """Run one timing model over the trace's chunk sites only.

    Args:
        trace: the *full* dynamic instruction stream; site selection and
            slicing happen here (both memoized on the trace).
        plan: the sampling plan (its instruction budget; every other
            selection parameter is a :mod:`.plan` constant).
        model / config / irb_config / max_cycles: exactly as in
            :func:`repro.simulation.runner.simulate`; ``max_cycles``
            guards each site run individually.
        warmup: when True (the default, matching full runs) each site is
            preceded by functional warmup over the full trace plus the
            prefix up to the site — cache / predictor / BTB training
            only, no cycle-core work, replayed once per trace and shared
            with every job on it (:func:`~repro.core.pipeline.warm_structures`).
            False runs every site cold.
        tracer: telemetry sink; receives every site run's raw pipeline
            events (in each site's own cycle/seq domain) plus, at the
            end, one :class:`PhaseEvent` per measured region stamped
            with the region's start offset on the reconstructed
            (concatenated-window) timeline and its phase from
            :func:`~.regions.phase_of` (computed only here, with a tracer).
    """
    if tracer is None:
        tracer = NULL_TRACER

    selection = select_regions(trace, plan)
    region_results: List[RegionResult] = []
    for site in selection.sites:
        slice_trace = site_trace(trace, site)
        pipeline = make_pipeline(model, slice_trace, config, irb_config)
        if warmup:
            pipeline.warm_up(trace, site.start)
        window = WindowTracer()
        if tracer is not NULL_TRACER:
            from ..telemetry import TeeTracer

            pipeline.tracer = TeeTracer(window, tracer)
        else:
            pipeline.tracer = window
        site_stats = pipeline.run(max_cycles=max_cycles)
        region_results.extend(
            _carve_site(site, selection, site_stats, window)
        )

    region_results.sort(key=lambda r: r.region.start)
    if tracer is not NULL_TRACER:
        phases = phase_of(trace)
        offset = 0
        for r in region_results:
            tracer.emit(
                PhaseEvent(
                    cycle=offset,
                    phase=phases[r.region.index],
                    start_seq=r.region.start,
                    end_seq=r.region.end,
                    weight=r.region.weight,
                )
            )
            offset += r.stats.cycles

    estimate = extrapolate_stats(region_results, selection.total_insts)
    return SampledRunResult(
        model=model,
        workload=trace.name,
        stats=estimate,
        plan=plan,
        selection=selection,
        region_results=region_results,
    )

"""Campaign execution: store lookups, trace-grouped parallel fan-out.

``run_campaign`` turns a list of :class:`~.jobs.Job` into a list of
:class:`~.jobs.JobResult` with three guarantees:

* **Determinism** — results are returned in submission order and are
  bit-identical whatever ``jobs_n`` is: workers only ever run the same
  seeded simulations the serial path would.
* **No repeated work** — jobs whose key is already in the store are
  answered without simulating; duplicate keys *within* one batch
  simulate once and fan the result out.
* **Trace sharing** — jobs are grouped by ``(workload, n_insts, seed)``
  and each group is dispatched as one task, so a worker generates each
  trace once (the runner's per-process trace cache covers re-dispatch of
  the same trace to the same pool worker).

Every finished group is persisted the moment it lands, so an interrupted
campaign resumes from the store.  With ``jobs_n > 1`` groups run on a
``ProcessPoolExecutor``: Ctrl-C cancels the groups not yet started and
re-raises; a worker process dying (killed, OOM, segfault) raises
:class:`WorkerLostError` once the surviving groups have drained.

An ambient :class:`CampaignContext` (``with campaign_context(...):``)
lets high-level entry points — the experiment registry, the CLI — set
the parallelism and store once while inner layers keep calling
``run_campaign(jobs)`` with no extra plumbing.  Its ``store_only`` flag
(resolve from the store or raise :class:`StoreMissError` — never
simulate) is how ``repro serve`` guarantees a warm query executes zero
simulations.

The store pass, intra-batch dedup, result fan-out and ordering logic
live in :class:`CampaignState`; the serial and the pool branch of
``run_campaign`` both drive it, which is why the two produce
byte-identical outcomes.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core import MachineConfig, SimStats
from ..core.decoded import decode_trace
from ..redundancy import FaultInjector
from ..sampling.plan import SamplingPlan
from ..simulation.runner import get_trace, simulate
from .jobs import SOURCE_RUN, SOURCE_STORE, Job, JobResult, Provenance
from .keys import CODE_VERSION, job_key
from .progress import wall_clock
from .store import ResultStore

ProgressFn = Callable[[int, int, JobResult], None]

#: One task for a worker: [(submission index, job), ...] sharing a trace.
_Group = List[Tuple[int, Job]]


class StoreMissError(LookupError):
    """A store-only campaign needed a result the store does not hold.

    ``missing`` counts the jobs that would have to simulate; the serve
    API maps this onto HTTP 409 with that count in the body.
    """

    def __init__(self, missing: int, total: int):
        super().__init__(
            f"{missing} of {total} job(s) not in the store "
            "(store-only campaign refuses to simulate)"
        )
        self.missing = missing
        self.total = total


class WorkerLostError(RuntimeError):
    """A pool worker died mid-campaign (killed, OOM, segfault).

    Everything completed before the loss is already in the store —
    re-running the campaign resumes from there.
    """


def execute_job(job: Job) -> SimStats:
    """Run one job to completion in this process and return its statistics."""
    trace = get_trace(job.workload, job.n_insts, job.seed)
    if job.sampling is not None:
        from ..sampling import run_sampled

        sampled = run_sampled(
            trace,
            job.sampling,
            model=job.model,
            config=job.config,
            irb_config=job.irb_config,
            max_cycles=job.max_cycles,
            warmup=job.warmup,
        )
        return sampled.stats
    injector = FaultInjector(list(job.faults)) if job.faults else None
    result = simulate(
        trace,
        model=job.model,
        config=job.config,
        irb_config=job.irb_config,
        fault_injector=injector,
        max_cycles=job.max_cycles,
        warmup=job.warmup,
    )
    return result.stats


def _prewarm_group(group: _Group) -> None:
    """Build the group's shared trace and decoded side-structure up front.

    Everything here is memoized (``get_trace``'s LRU, ``Trace.derived``),
    so paying for it now keeps one-time construction out of the first
    job's reported wall time.  For sampled jobs the same applies one
    level down: site selection is resolved per distinct plan and every
    site's re-sequenced slice is decoded per line size — so two sampled
    jobs differing only in model or machine configuration share one
    selection pass, one slice ``Trace`` per site, and one
    ``DecodedTrace`` per (slice, line size).
    """
    first = group[0][1]
    trace = get_trace(*first.trace_key)
    line_bytes = {
        (job.config or MachineConfig.baseline()).hierarchy.l1i.line_bytes
        for _, job in group
    }
    for lb in line_bytes:
        decode_trace(trace, lb)
    plans = {job.sampling for _, job in group if job.sampling is not None}
    if plans:
        from ..sampling import select_regions, site_trace

        for plan in plans:
            selection = select_regions(trace, plan)
            for site in selection.sites:
                slice_trace = site_trace(trace, site)
                for lb in line_bytes:
                    decode_trace(slice_trace, lb)


def _run_group(group: _Group) -> List[Tuple[int, SimStats, float]]:
    """Worker entry point: simulate one trace-sharing group of jobs."""
    _prewarm_group(group)
    out = []
    for index, job in group:
        start = wall_clock()
        stats = execute_job(job)
        out.append((index, stats, wall_clock() - start))
    return out


def _group_by_trace(indexed_jobs: Sequence[Tuple[int, Job]]) -> List[_Group]:
    """Partition jobs by trace key, preserving submission order within each."""
    groups: Dict[Tuple[str, int, int], _Group] = {}
    for index, job in indexed_jobs:
        groups.setdefault(job.trace_key, []).append((index, job))
    return list(groups.values())


@dataclass
class CampaignOutcome:
    """Everything one ``run_campaign`` call produced."""

    results: List[JobResult]  # submission order
    executed: int = 0  # simulations actually run
    store_hits: int = 0  # jobs answered from the store
    deduped: int = 0  # duplicate-key jobs answered by a sibling
    wall_time_s: float = 0.0


class CampaignState:
    """The campaign bookkeeping shared by the serial and pool branches.

    :meth:`resolve` performs the store pass and intra-batch dedup,
    :meth:`complete` persists and fans out one simulated result,
    :meth:`finalize` re-asserts submission order.  Byte-identical
    outcomes whatever ``jobs_n`` is follow from both branches sharing
    this class rather than re-implementing its rules.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        store: Optional[ResultStore] = None,
        progress: Optional[ProgressFn] = None,
    ):
        self.jobs = jobs
        self.store = store
        self.progress = progress
        self.total = len(jobs)
        self.start = wall_clock()
        self.outcome = CampaignOutcome(results=[])
        self.done = 0
        self._slots: List[Optional[JobResult]] = [None] * self.total
        self._duplicates: Dict[int, List[int]] = {}  # first index -> followers

    def _finish(self, index: int, result: JobResult) -> None:
        self._slots[index] = result
        self.done += 1
        if self.progress is not None:
            self.progress(self.done, self.total, result)

    def resolve(self) -> List[_Group]:
        """Store pass + dedup; returns the trace groups left to simulate."""
        first_index_for_key: Dict[str, int] = {}
        pending: List[Tuple[int, Job]] = []
        for index, job in enumerate(self.jobs):
            key = job_key(job)
            if self.store is not None:
                found = self.store.get(key)
                if found is not None:
                    stats, provenance = found
                    self.outcome.store_hits += 1
                    result = JobResult(job, stats, provenance)
                    self._finish(index, result)
                    continue
            first = first_index_for_key.setdefault(key, index)
            if first != index:
                self._duplicates.setdefault(first, []).append(index)
                self.outcome.deduped += 1
            else:
                pending.append((index, job))
        return _group_by_trace(pending)

    def complete(self, index: int, stats: SimStats, wall: float) -> None:
        """Persist one simulated result and fan it out to duplicate jobs."""
        job = self.jobs[index]
        provenance = Provenance(SOURCE_RUN, wall, CODE_VERSION)
        if self.store is not None:
            self.store.put(job, stats, provenance)
        self.outcome.executed += 1
        self._finish(index, JobResult(job, stats, provenance))
        for follower in self._duplicates.get(index, ()):
            result = JobResult(
                self.jobs[follower], stats, Provenance(SOURCE_STORE, wall, CODE_VERSION)
            )
            self._finish(follower, result)

    def finalize(self) -> CampaignOutcome:
        """Assemble the outcome in submission order; absorbs into context."""
        self.outcome.results = [r for r in self._slots if r is not None]
        if len(self.outcome.results) != self.total:
            raise RuntimeError("campaign lost results (scheduler bug)")
        self.outcome.wall_time_s = wall_clock() - self.start
        context = current_context()
        if context is not None:
            context.absorb(self.outcome)
        return self.outcome


@dataclass
class CampaignContext:
    """Ambient campaign settings plus cross-call counters.

    ``sampling`` is a request, not a mandate: job builders that go
    through the context (``experiments.common.run_apps``) apply the plan
    to their plain cycle-simulation jobs, while jobs that sampling
    cannot express (fault injection) ignore it.

    ``store_only`` turns misses into :class:`StoreMissError` instead of
    simulations — the serving tier's zero-simulation guarantee.
    """

    jobs_n: int = 1
    store: Optional[ResultStore] = None
    progress: Optional[ProgressFn] = None
    sampling: Optional[SamplingPlan] = None
    store_only: bool = False
    executed: int = 0
    store_hits: int = 0

    def absorb(self, outcome: CampaignOutcome) -> None:
        self.executed += outcome.executed
        self.store_hits += outcome.store_hits


_ACTIVE_CONTEXT: Optional[CampaignContext] = None


def current_context() -> Optional[CampaignContext]:
    """The innermost active campaign context, if any."""
    return _ACTIVE_CONTEXT


@contextmanager
def campaign_context(
    jobs_n: int = 1,
    store: Optional[ResultStore] = None,
    progress: Optional[ProgressFn] = None,
    sampling: Optional[SamplingPlan] = None,
    store_only: bool = False,
) -> Iterator[CampaignContext]:
    """Install an ambient context for nested ``run_campaign`` calls."""
    global _ACTIVE_CONTEXT
    context = CampaignContext(
        jobs_n=jobs_n,
        store=store,
        progress=progress,
        sampling=sampling,
        store_only=store_only,
    )
    previous = _ACTIVE_CONTEXT
    _ACTIVE_CONTEXT = context
    try:
        yield context
    finally:
        _ACTIVE_CONTEXT = previous


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork keeps the parent's (already warm) trace cache and sys.path;
    # fall back to spawn where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _run_pool(groups: List[_Group], jobs_n: int, state: CampaignState) -> None:
    """Fan the groups over worker processes, persisting each as it lands.

    A lost worker breaks the whole pool; the remaining futures are still
    drained (groups that finished before the break deliver and persist)
    before :class:`WorkerLostError` is raised.
    """
    lost: Optional[BrokenProcessPool] = None
    executor = ProcessPoolExecutor(
        max_workers=min(jobs_n, len(groups)), mp_context=_pool_context()
    )
    try:
        futures = [executor.submit(_run_group, group) for group in groups]
        for future in as_completed(futures):
            try:
                group_result = future.result()
            except BrokenProcessPool as error:
                lost = error
                continue
            for index, stats, wall in group_result:
                state.complete(index, stats, wall)
    except BaseException:
        # Ctrl-C or a failing job: everything completed above is already
        # in the store; cancel the groups not yet started and propagate.
        executor.shutdown(wait=False, cancel_futures=True)
        raise
    executor.shutdown()
    if lost is not None:
        raise WorkerLostError(
            "a campaign worker died; completed groups are persisted — "
            "re-run to resume from the store"
        ) from lost


def run_campaign(
    jobs: Sequence[Job],
    jobs_n: Optional[int] = None,
    store: Optional[ResultStore] = None,
    progress: Optional[ProgressFn] = None,
) -> CampaignOutcome:
    """Resolve every job — from the store where possible, else simulate.

    Args:
        jobs: the batch, in the order results should come back.
        jobs_n: worker processes; ``None`` defers to the ambient context
            (default 1 = run serially in-process, no pool).
        store: result store; ``None`` defers to the ambient context
            (which may itself have none — then nothing persists).
        progress: per-job callback ``(done, total, result)``; ``None``
            defers to the ambient context.

    Raises:
        StoreMissError: the ambient context is ``store_only`` and at
            least one job is not in the store.
    """
    context = current_context()
    if jobs_n is None:
        jobs_n = context.jobs_n if context else 1
    if store is None and context is not None:
        store = context.store
    if progress is None and context is not None:
        progress = context.progress

    state = CampaignState(jobs, store=store, progress=progress)

    # 1. Store lookups + intra-batch dedup: only unique misses simulate.
    groups = state.resolve()

    if groups and context is not None and context.store_only:
        raise StoreMissError(
            missing=sum(len(g) for g in groups) + state.outcome.deduped,
            total=state.total,
        )

    # 2. Execute the misses, grouped so each trace is generated once.
    if groups:
        if jobs_n <= 1 or len(groups) == 1:
            for group in groups:
                for index, stats, wall in _run_group(group):
                    state.complete(index, stats, wall)
        else:
            _run_pool(groups, jobs_n, state)

    return state.finalize()

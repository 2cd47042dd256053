"""Campaign harness: parallel simulation scheduling + persistent store.

Turn any batch of independent simulation requests into a resumable,
parallel campaign::

    from repro.campaign import Job, ResultStore, run_campaign

    jobs = [Job("gzip", 40_000, model=m) for m in ("sie", "die", "die-irb")]
    outcome = run_campaign(jobs, jobs_n=4, store=ResultStore())
    for result in outcome.results:        # submission order, always
        print(result.job.model, result.stats.ipc)

Re-running the same campaign answers every job from the store without
simulating.  See ``docs/CAMPAIGNS.md`` for the job model, the
key/provenance scheme and resume semantics.
"""

from .jobs import Job, JobResult, Provenance, SOURCE_RUN, SOURCE_STORE
from .keys import (
    CODE_VERSION,
    canonical,
    from_canonical,
    job_from_spec,
    job_key,
    job_spec,
)
from .progress import ProgressPrinter, wall_clock
from .scheduler import (
    CampaignContext,
    CampaignOutcome,
    CampaignState,
    StoreMissError,
    WorkerLostError,
    campaign_context,
    current_context,
    execute_job,
    run_campaign,
)
from .store import DEFAULT_ROOT, ResultStore, stats_from_dict, stats_to_dict

__all__ = [
    "CODE_VERSION",
    "CampaignContext",
    "CampaignOutcome",
    "CampaignState",
    "DEFAULT_ROOT",
    "Job",
    "JobResult",
    "ProgressPrinter",
    "Provenance",
    "ResultStore",
    "SOURCE_RUN",
    "SOURCE_STORE",
    "StoreMissError",
    "WorkerLostError",
    "campaign_context",
    "canonical",
    "current_context",
    "execute_job",
    "from_canonical",
    "job_from_spec",
    "job_key",
    "job_spec",
    "run_campaign",
    "stats_from_dict",
    "stats_to_dict",
    "wall_clock",
]

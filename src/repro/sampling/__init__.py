"""Sampled simulation: BBV phase analysis, k-means region selection and
weighted extrapolation of cycle statistics.

The SimPoint-style pipeline, end to end:

1. :mod:`.bbv` cuts the functional trace into fixed-length intervals and
   records one basic-block vector per interval.
2. :mod:`.kmeans` clusters the (random-projected) vectors into phases —
   seeded, dependency-free, BIC-driven k selection.
3. :mod:`.proxies` sweeps the trace once functionally for per-interval
   memory-latency and mispredict covariates.
4. :mod:`.regions` greedily selects boundary-aligned *chunk sites*
   (pad + consecutive measured intervals) under the instruction budget
   and assigns every measured region its extrapolation weight ``V_j``
   (stratified clustering ensemble + regression control variate).
5. :mod:`.extrapolate` runs the cycle core over the sites only (after
   functional warmup), carves each site run into per-region commit
   windows and reconstructs whole-program statistics.
6. :mod:`.errors` quantifies the result against full simulation.

A :class:`~.plan.SamplingPlan` (the instruction budget of step 4) is
hashed into campaign content keys, so sampled results are
store-addressable and can never collide with full runs.
"""

from .bbv import BBVInterval, BBVProfile, profile_trace, project
from .errors import (
    SampleError,
    duplicate_bandwidth,
    geomean_ipc_error,
    measure_error,
    measure_errors,
    relative_error,
)
from .extrapolate import (
    RegionResult,
    SampledRunResult,
    WindowTracer,
    extrapolate_stats,
    run_sampled,
)
from .kmeans import Clustering, kmeans, select_k
from .plan import SamplingPlan
from .proxies import interval_proxies
from .regions import (
    Region,
    RegionSelection,
    Site,
    phase_of,
    select_regions,
    site_trace,
)

__all__ = [
    "BBVInterval",
    "BBVProfile",
    "Clustering",
    "Region",
    "RegionResult",
    "RegionSelection",
    "SampleError",
    "SampledRunResult",
    "SamplingPlan",
    "Site",
    "WindowTracer",
    "duplicate_bandwidth",
    "extrapolate_stats",
    "geomean_ipc_error",
    "interval_proxies",
    "kmeans",
    "measure_error",
    "measure_errors",
    "phase_of",
    "profile_trace",
    "project",
    "relative_error",
    "run_sampled",
    "select_k",
    "select_regions",
    "site_trace",
]

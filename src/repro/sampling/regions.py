"""Chunk-site selection and per-region extrapolation weights.

Gluing the profile (:mod:`.bbv`) to the clusters (:mod:`.kmeans`) and
the functional proxies (:mod:`.proxies`).  Selection works on *chunk
sites*: a site is one functional-pad interval followed by
``DEFAULT_CHUNK`` consecutive *measured* intervals, aligned to interval
boundaries.  Measuring a chunk rather than a lone interval is what keeps
window measurements honest — only the first measured interval sits
behind the (detail-warmed but short) pad; the rest execute with fully
detailed pipeline context, so burst-commit and backlog-sensitive
intervals read close to their in-situ cost (see ``docs/SAMPLING.md``).

Selection is a greedy weighted k-medians: each round scores every
possible chunk start by how much adding its measured intervals as
medoids reduces the instruction-weighted sum of squared BBV distances,
and takes the best chunk whose *new* simulated intervals (unsimulated
chunk members plus the pad) still fit the instruction budget.
Adjacent/overlapping chunks merge into longer sites, whose interior
needs no extra pad — the budget buys strictly more measurement where the
program is stable.

Every measured interval becomes a :class:`Region` carrying an
extrapolation weight ``V_j`` that already folds in the whole estimator:

* **stratified ensemble weights** ``W_j`` — phase shares split among a
  phase's measured members (or routed to the centroid-nearest measured
  interval when a phase has none), averaged over a small ensemble of
  clusterings (four cluster counts x three seeds, plus a 1-nearest-
  neighbour map per seed), and
* a **regression control variate** on the functional proxies: the
  blended estimate ``lam * strat + (1 - lam) * regression`` is *linear*
  in the measured values, so it collapses to per-region weights
  ``V_j = W_j + (1 - lam) * z . x_j`` where ``z`` solves the regression
  normal equations against the weight-gap vector.  ``sum(V_j) == 1``
  exactly (the estimator maps the constant 1 to 1), which is what makes
  ``committed`` extrapolate to exactly the trace length.

The weights depend only on the selection — not on any measured value —
so they are computed once here and reused by every timing model and
machine configuration that samples this trace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..workloads import Trace
from .bbv import BBVProfile, profile_trace, project
from .kmeans import Clustering, select_k
from .plan import DEFAULT_CHUNK, DEFAULT_INTERVAL, DEFAULT_SEED, SamplingPlan
from .proxies import interval_proxies

#: Blend factor ``lam`` between the stratified estimate and the
#: regression control variate.  0.5 validated best jointly across the
#: twelve-app suite and all three timing models.
BLEND = 0.5

#: Cluster counts of the weighting ensemble (each paired with three
#: projection seeds plus a per-seed 1-NN map).
ENSEMBLE_KS = (10, 16, 22, 28)

#: Cap on the BIC search for the *reporting* phase map (the phase map
#: colours reports and telemetry; it does not steer selection, so it is
#: computed only on demand, by :func:`phase_of`).
PHASE_K_MAX = 12


@dataclass(frozen=True)
class Region:
    """One measured interval of a chunk site.

    Attributes:
        index: profiling-interval index in the parent trace (its phase
            is ``phase_of(trace)[index]``).
        start / end: half-open dynamic-instruction range in the parent
            trace (one profiling interval).
        weight: the extrapolation weight ``V_j`` — what the region's
            per-instruction rates are scaled by when reconstructing
            whole-program statistics.  Always non-negative (a regression
            term that over-corrects past zero is dropped wholesale, see
            :func:`_region_weights`); the weights sum to 1.
    """

    index: int
    start: int
    end: int
    weight: float

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Site:
    """One contiguous cycle-core window (pad + measured intervals).

    ``start``/``end`` are the half-open dynamic-instruction range the
    cycle core simulates; ``measured`` the interval indices whose
    statistics are extracted from the run (any leading pad interval is
    simulated but discarded).
    """

    start: int
    end: int
    measured: Tuple[int, ...]

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class RegionSelection:
    """The full outcome of region selection on one trace under one plan.

    ``regions`` are ordered by trace position, ``sites`` likewise; every
    region lies inside exactly one site.  ``fingerprints`` holds one
    signature per profiling interval, in interval order.
    """

    interval_length: int
    total_insts: int
    regions: Tuple[Region, ...]
    sites: Tuple[Site, ...]
    fingerprints: Tuple[str, ...]

    @property
    def simulated_insts(self) -> int:
        """Dynamic instructions the cycle core will simulate."""
        return sum(site.length for site in self.sites)

    @property
    def measured_insts(self) -> int:
        """Dynamic instructions inside measured intervals only."""
        return sum(region.length for region in self.regions)

    @property
    def coverage(self) -> float:
        """Simulated fraction of the trace (the budget actually used)."""
        return self.simulated_insts / self.total_insts if self.total_insts else 0.0


def phase_letter(phase: int) -> str:
    """A phase id as the one character reports print (``A``..``Z``, ``?``)."""
    return chr(ord("A") + phase) if phase < 26 else "?"


def phase_of(trace: Trace) -> Tuple[int, ...]:
    """The (memoized) reporting phase map: each profiling interval's phase.

    A BIC-selected clustering of the intervals, in interval order.  It
    colours ``repro sample report``, ``repro run --sample --json`` and
    the :class:`~repro.telemetry.events.PhaseEvent` stream; selection and
    weights never read it, so it is built only when one of those asks.
    Memoized on the trace (every plan shares the profile it clusters).
    """

    def build(parent: Trace) -> Tuple[int, ...]:
        points = project(profile_trace(parent, DEFAULT_INTERVAL), DEFAULT_SEED)
        return select_k(
            points, min(PHASE_K_MAX, len(points)), DEFAULT_SEED
        ).assignments

    return trace.derived(("phase-map", DEFAULT_INTERVAL), build)


def _sqd(a: Sequence[float], b: Sequence[float]) -> float:
    # ``(x - y) ** 2``, not ``d * d``: the platform ``pow`` need not be
    # correctly rounded, so the two can differ in the last bit, and
    # these sums order the chunk candidates.
    return sum([(x - y) ** 2 for x, y in zip(a, b)])


def _select_chunks(
    points: Sequence[Sequence[float]],
    weights: Sequence[int],
    chunk: int,
    budget: float,
) -> Tuple[Set[int], Set[int]]:
    """Greedy chunk-gain k-medians under the instruction budget.

    Returns ``(measured, simulated)`` interval-index sets, with
    ``measured <= simulated`` (the difference is pad intervals).  Each
    round considers every chunk start ``s0``: its measured candidates
    are the not-yet-measured intervals in ``[s0, s0 + chunk)``, its cost
    the not-yet-simulated ones plus the boundary pad ``s0 - 1``
    (interval 0 needs no pad — the trace genuinely starts cold there,
    exactly as the full run sees it).
    """
    count = len(points)
    total_weight = sum(weights)
    budget_weight = budget * total_weight
    simulated: Set[int] = set()
    measured: Set[int] = set()
    dist = [float("inf")] * count

    # Pairwise squared distances, then one static min-distance row per
    # chunk start.  A chunk's gain over the *unmeasured* members equals
    # its gain over all static members: once ``c`` is measured,
    # ``dist[i] <= D[c][i]`` everywhere, so ``c`` can never contribute —
    # which is what lets the inner loop use precomputed rows.
    pair = [[0.0] * count for _ in range(count)]
    for i in range(count):
        row_i = pair[i]
        for j in range(i + 1, count):
            d = _sqd(points[i], points[j])
            row_i[j] = d
            pair[j][i] = d
    chunk_min = []
    for s0 in range(count):
        rows = pair[s0:s0 + chunk]
        chunk_min.append(list(map(min, *rows)) if len(rows) > 1 else rows[0])

    while True:
        best: Optional[Tuple[int, Set[int]]] = None
        best_gain = -1.0
        spent = sum(weights[i] for i in simulated)
        for s0 in range(count):
            stop = min(s0 + chunk, count)
            if all(c in measured for c in range(s0, stop)):
                continue
            need = set(range(s0, stop))
            if s0 > 0:
                need.add(s0 - 1)
            cost = sum(weights[i] for i in need - simulated)
            if spent + cost > budget_weight and measured:
                continue
            gain = 0.0
            for weight, d, current in zip(weights, chunk_min[s0], dist):
                if d < current:
                    gain += weight * (current - d)
            if gain > best_gain:
                best_gain = gain
                best = (s0, need)
        if best is None:
            break
        s0, need = best
        simulated |= need
        members = [
            c for c in range(s0, min(s0 + chunk, count)) if c not in measured
        ]
        measured.update(members)
        for c in members:
            row_c = pair[c]
            for i in range(count):
                if row_c[i] < dist[i]:
                    dist[i] = row_c[i]
    return measured, simulated


def _strat_weights(
    points: Sequence[Sequence[float]],
    weights: Sequence[int],
    clustering: Clustering,
    measured: Set[int],
) -> Dict[int, float]:
    total_weight = sum(weights)
    insts_of = [0] * clustering.k
    members: Dict[int, List[int]] = {phase: [] for phase in range(clustering.k)}
    for i, phase in enumerate(clustering.assignments):
        insts_of[phase] += weights[i]
        members[phase].append(i)
    result = {j: 0.0 for j in measured}
    for phase in range(clustering.k):
        if not insts_of[phase]:
            continue
        sampled = [i for i in members[phase] if i in measured]
        share = insts_of[phase] / total_weight
        if sampled:
            for j in sampled:
                result[j] += share / len(sampled)
        else:
            nearest = min(
                measured,
                key=lambda i: _sqd(points[i], clustering.centroids[phase]),
            )
            result[nearest] += share
    return result


def _nn_weights(
    points: Sequence[Sequence[float]],
    weights: Sequence[int],
    measured: Set[int],
) -> Dict[int, float]:
    total_weight = sum(weights)
    result = {j: 0.0 for j in measured}
    for i in range(len(points)):
        nearest = min(measured, key=lambda j: _sqd(points[i], points[j]))
        result[nearest] += weights[i] / total_weight
    return result


def _ensemble_weights(
    profile: BBVProfile, points: List[List[float]], measured: Set[int]
) -> Dict[int, float]:
    """The stratified-ensemble weights ``W_j`` (sum to 1).

    ``points`` is the profile's :data:`DEFAULT_SEED` projection, which
    selection already made; the other two seeds are projected here.
    """
    weights = [interval.length for interval in profile.intervals]
    count = len(weights)
    accumulated = {j: 0.0 for j in measured}
    passes = 0
    for seed in (DEFAULT_SEED, DEFAULT_SEED + 1, DEFAULT_SEED + 2):
        if seed != DEFAULT_SEED:
            points = project(profile, seed)
        for k in ENSEMBLE_KS:
            clustering = select_k(
                points, min(k, count), seed, k_fixed=min(k, count)
            )
            for j, w in _strat_weights(
                points, weights, clustering, measured
            ).items():
                accumulated[j] += w
            passes += 1
        for j, w in _nn_weights(points, weights, measured).items():
            accumulated[j] += w
        passes += 1
    return {j: w / passes for j, w in accumulated.items()}


def _solve3(
    matrix: List[List[float]], rhs: List[float]
) -> Optional[List[float]]:
    """Gauss-Jordan with partial pivoting; ``None`` when singular."""
    a = [row[:] for row in matrix]
    b = rhs[:]
    for col in range(3):
        pivot = max(range(col, 3), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        if abs(a[col][col]) < 1e-12:
            return None
        for row in range(3):
            if row != col:
                factor = a[row][col] / a[col][col]
                for c in range(3):
                    a[row][c] -= factor * a[col][c]
                b[row] -= factor * b[col]
    return [b[c] / a[c][c] for c in range(3)]


def _region_weights(
    trace: Trace,
    profile: BBVProfile,
    points: List[List[float]],
    measured: Set[int],
) -> Dict[int, float]:
    """The final per-region weights ``V_j`` (strat ensemble + control
    variate), computable before any cycle-core work."""
    strat = _ensemble_weights(profile, points, measured)
    proxies = interval_proxies(trace, DEFAULT_INTERVAL)
    lengths = [interval.length for interval in profile.intervals]
    total_weight = sum(lengths)
    covariates = {j: (1.0, proxies[j][0], proxies[j][1]) for j in measured}

    # Normal matrix of the measured covariates and the weight-gap vector
    # g = x_bar - sum_j W_j x_j; z = (X^T X)^-1 g turns the regression
    # control variate into per-region linear weights (module docstring).
    normal = [
        [sum(x[a] * x[b] for x in covariates.values()) for b in range(3)]
        for a in range(3)
    ]
    rows = [(1.0, proxies[i][0], proxies[i][1]) for i in range(len(lengths))]
    mean_x = [
        sum(lengths[i] / total_weight * rows[i][axis] for i in range(len(rows)))
        for axis in range(3)
    ]
    gap = [
        mean_x[axis] - sum(strat[j] * covariates[j][axis] for j in measured)
        for axis in range(3)
    ]
    z = _solve3(normal, gap)
    if z is None:
        return strat
    blended = {
        j: strat[j]
        + (1.0 - BLEND) * sum(z[axis] * covariates[j][axis] for axis in range(3))
        for j in measured
    }
    # A correction that drives any weight negative means the regression
    # is out of regime (too few regions for the covariates — it moves
    # weights by more than their own size).  Measured across the suite:
    # where that happens the raw blend can be off by >30% while the
    # stratified weights alone stay within ~2%, and partial damping to
    # the non-negativity boundary still errs >10%.  So the control
    # variate is all-or-nothing: keep it only when every weight stays
    # non-negative.  (The correction sums to zero, so either branch
    # preserves ``sum(V_j) == 1``.)
    if min(blended.values()) < 0.0:
        return strat
    return blended


def _sites_of(
    simulated: Set[int],
    measured: Set[int],
    interval_length: int,
    total_insts: int,
) -> Tuple[Site, ...]:
    ordered = sorted(simulated)
    runs: List[List[int]] = [[ordered[0], ordered[0]]]
    for index in ordered[1:]:
        if index == runs[-1][1] + 1:
            runs[-1][1] = index
        else:
            runs.append([index, index])
    return tuple(
        Site(
            start=lo * interval_length,
            end=min((hi + 1) * interval_length, total_insts),
            measured=tuple(i for i in range(lo, hi + 1) if i in measured),
        )
        for lo, hi in runs
    )


def _select(trace: Trace, plan: SamplingPlan) -> RegionSelection:
    profile: BBVProfile = profile_trace(trace, DEFAULT_INTERVAL)
    points = project(profile, DEFAULT_SEED)
    lengths = [interval.length for interval in profile.intervals]

    measured, simulated = _select_chunks(
        points, lengths, DEFAULT_CHUNK, plan.budget
    )
    weights = _region_weights(trace, profile, points, measured)

    total = profile.total_insts
    regions = tuple(
        Region(
            index=j,
            start=profile.intervals[j].start,
            end=profile.intervals[j].start + profile.intervals[j].length,
            weight=weights[j],
        )
        for j in sorted(measured)
    )
    return RegionSelection(
        interval_length=DEFAULT_INTERVAL,
        total_insts=total,
        regions=regions,
        sites=_sites_of(simulated, measured, DEFAULT_INTERVAL, total),
        fingerprints=tuple(
            interval.fingerprint for interval in profile.intervals
        ),
    )


def select_regions(trace: Trace, plan: SamplingPlan) -> RegionSelection:
    """The (memoized) region selection for ``trace`` under ``plan``.

    Memoized on the trace object by the plan, so every job sharing the
    trace shares one profiling + clustering + weighting pass.
    """
    return trace.derived(plan.selection_key(), lambda t: _select(t, plan))


def site_trace(trace: Trace, site: Site) -> Trace:
    """A re-sequenced, independently simulatable slice of ``trace``.

    The timing models require ``inst.seq`` to equal the trace index
    (decoded arrays and squash refetch both index by it), so the slice's
    instructions are copied with fresh sequence numbers.  Memoized by
    ``(start, end)`` only: every model and machine configuration that
    selects this site shares one object — the cross-config site dedup
    the campaign scheduler relies on.
    """

    def build(parent: Trace) -> Trace:
        insts = [
            replace(inst, seq=position)
            for position, inst in enumerate(parent.insts[site.start:site.end])
        ]
        return Trace(
            name=f"{parent.name}@{site.start}",
            insts=insts,
            static_footprint=parent.static_footprint,
            cold_ranges=parent.cold_ranges,
        )

    return trace.derived(("region-trace", site.start, site.end), build)

"""Seeded, dependency-free k-means with BIC-driven k selection.

A deliberately small implementation — the point sets here are tiny (one
point per profiling interval: tens, not millions), so clarity and
determinism beat asymptotics:

* k-means++ initialisation from a :class:`random.Random` seeded by the
  plan, Lloyd iterations with index-order tie-breaking, empty clusters
  repaired by stealing the point farthest from its centroid.  Identical
  inputs and seeds produce identical assignments in any process.
* Each assignment step takes a hint — the previous assignments, or for
  the first step each point's nearest k-means++ seed — and starts every
  point's search at that centroid, so the other candidates' partial
  distances are abandoned early.  The hint changes only the work, never
  the (distance, index)-minimum chosen.
* :func:`select_k` scores k = 1..k_max with the Bayesian Information
  Criterion under the identical-spherical-Gaussian model (the X-means /
  SimPoint formulation) and — like SimPoint — picks the *smallest* k
  whose score reaches 90% of the observed score range, preferring few
  phases unless more genuinely explain the data.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: Lloyd-iteration cap (tiny point sets converge in a handful of steps).
MAX_ITERATIONS = 100

#: select_k accepts the smallest k scoring at least this fraction of the
#: BIC range above the minimum (SimPoint's published heuristic).
BIC_THRESHOLD = 0.9

Point = Sequence[float]


def _sq_dist(a: Point, b: Point) -> float:
    total = 0.0
    for x, y in zip(a, b):
        diff = x - y
        total += diff * diff
    return total


def _mean(points: List[Point], members: List[int], dims: int) -> List[float]:
    centroid = [0.0] * dims
    for index in members:
        point = points[index]
        for dim in range(dims):
            centroid[dim] += point[dim]
    inv = 1.0 / len(members)
    return [value * inv for value in centroid]


@dataclass(frozen=True)
class Clustering:
    """One k-means solution over a point set."""

    k: int
    assignments: Tuple[int, ...]
    centroids: Tuple[Tuple[float, ...], ...]
    inertia: float  #: sum of squared point->centroid distances
    bic: float


def _init_plusplus(
    points: List[Point], k: int, rng: random.Random
) -> Tuple[List[Point], List[int]]:
    """k-means++ seeding: spread initial centroids by squared distance.

    Also returns each point's nearest seed, the hint for the first
    assignment step.
    """
    centroids: List[Point] = [points[rng.randrange(len(points))]]
    dist = [_sq_dist(p, centroids[0]) for p in points]
    nearest = [0] * len(points)
    dims = len(points[0])
    while len(centroids) < k:
        total = sum(dist)
        if total <= 0.0:
            # All remaining points coincide with a centroid; any choice
            # is equivalent — take the first for determinism.
            centroids.append(points[0])
            continue
        pick = rng.random() * total
        acc = 0.0
        chosen = len(points) - 1
        for index, weight in enumerate(dist):
            acc += weight
            if acc >= pick:
                chosen = index
                break
        seed = points[chosen]
        centroids.append(seed)
        for index, point in enumerate(points):
            # Only a strictly closer seed replaces dist[index], so the
            # partial sum can stop once it reaches it.
            bound = dist[index]
            candidate = 0.0
            for dim in range(dims):
                diff = point[dim] - seed[dim]
                candidate += diff * diff
                if candidate >= bound:
                    break
            else:
                if candidate < bound:
                    dist[index] = candidate
                    nearest[index] = len(centroids) - 1
    return centroids, nearest


def _assign(
    points: List[Point], centroids: List[Point], hint: Sequence[int]
) -> List[int]:
    """Nearest centroid per point; ties go to the lowest index.

    ``hint`` (a centroid index per point) only orders the search: each
    point starts at its hinted centroid, which is usually already the
    nearest, so the other candidates are abandoned after a few
    dimensions.  Each term of a partial sum is non-negative, so the sum
    never decreases; a candidate is abandoned only once it can no longer
    beat the incumbent in (distance, index) order — on ``>`` if its
    index is lower (it would win a tie), on ``>=`` if higher.  The result
    is therefore the same for every hint.
    """
    count = len(centroids)
    dims = len(points[0]) if points else 0
    assignments = []
    for position, point in enumerate(points):
        best = hint[position]
        best_dist = _sq_dist(point, centroids[best])
        for index in range(count):
            if index == best:
                continue
            centroid = centroids[index]
            total = 0.0
            if index < best:
                for dim in range(dims):
                    diff = point[dim] - centroid[dim]
                    total += diff * diff
                    if total > best_dist:
                        break
                else:
                    if total <= best_dist:  # a lower index wins a tie
                        best, best_dist = index, total
            else:
                for dim in range(dims):
                    diff = point[dim] - centroid[dim]
                    total += diff * diff
                    if total >= best_dist:
                        break
                else:
                    if total < best_dist:
                        best, best_dist = index, total
        assignments.append(best)
    return assignments


def _members(assignments: Sequence[int], k: int) -> List[List[int]]:
    """Point indices of each cluster, ascending, in one pass."""
    members: List[List[int]] = [[] for _ in range(k)]
    for index, cluster in enumerate(assignments):
        members[cluster].append(index)
    return members


def _bic(points: List[Point], assignments: List[int], k: int) -> float:
    """X-means BIC under identical spherical Gaussians per cluster."""
    n = len(points)
    dims = len(points[0])
    clusters = _members(assignments, k)
    sizes = [len(members) for members in clusters]
    centroids = [
        _mean(points, members, dims) if members else [0.0] * dims
        for members in clusters
    ]
    distortion = sum(
        _sq_dist(points[i], centroids[assignments[i]]) for i in range(n)
    )
    free_params = k * (dims + 1)
    if n <= k or distortion <= 1e-12:
        # Perfect (or over-determined) fit: likelihood is unbounded under
        # the Gaussian model.  Reward the fit but keep the complexity
        # penalty so the smallest perfect k wins.
        return 1e12 - free_params * math.log(max(n, 2)) / 2.0
    variance = distortion / (dims * (n - k))
    log_likelihood = 0.0
    for size in sizes:
        if size <= 0:
            continue
        log_likelihood += (
            size * math.log(size)
            - size * math.log(n)
            - size * dims / 2.0 * math.log(2.0 * math.pi * variance)
            - (size - 1.0) * dims / 2.0
        )
    return log_likelihood - free_params * math.log(n) / 2.0


def kmeans(points: Sequence[Point], k: int, seed: int) -> Clustering:
    """Cluster ``points`` into ``k`` groups, deterministically."""
    if not points:
        raise ValueError("cannot cluster an empty point set")
    if k < 1:
        raise ValueError("k must be >= 1")
    pts: List[Point] = [tuple(p) for p in points]
    k = min(k, len(pts))
    rng = random.Random(f"kmeans:{seed}:{k}")
    centroids, nearest = _init_plusplus(pts, k, rng)
    assignments = _assign(pts, centroids, nearest)
    dims = len(pts[0])
    for _ in range(MAX_ITERATIONS):
        # Recompute centroids; repair empty clusters by stealing the
        # globally farthest point (keeps k populated and deterministic).
        new_centroids: List[Point] = []
        for members in _members(assignments, k):
            if members:
                new_centroids.append(_mean(pts, members, dims))
            else:
                farthest = max(
                    range(len(pts)),
                    key=lambda i: (_sq_dist(pts[i], centroids[assignments[i]]), -i),
                )
                new_centroids.append(list(pts[farthest]))
        new_assignments = _assign(pts, new_centroids, assignments)
        centroids = new_centroids
        if new_assignments == assignments:
            break
        assignments = new_assignments
    inertia = sum(
        _sq_dist(pts[i], centroids[assignments[i]]) for i in range(len(pts))
    )
    return Clustering(
        k=k,
        assignments=tuple(assignments),
        centroids=tuple(tuple(c) for c in centroids),
        inertia=inertia,
        bic=_bic(pts, assignments, k),
    )


def select_k(
    points: Sequence[Point], k_max: int, seed: int, k_fixed: int = 0
) -> Clustering:
    """Pick a clustering: fixed ``k_fixed`` when given, else BIC over 1..k_max.

    With ``k_fixed`` (clamped to ``k_max`` and the point count) the BIC
    scan is skipped entirely.  Otherwise every k in 1..k_max is scored
    and the smallest k reaching :data:`BIC_THRESHOLD` of the score range
    wins — SimPoint's preference for the simplest adequate phase model.
    """
    if k_fixed:
        return kmeans(points, min(k_fixed, k_max), seed)
    k_max = max(1, min(k_max, len(points)))
    solutions = [kmeans(points, k, seed) for k in range(1, k_max + 1)]
    scores = [s.bic for s in solutions]
    low, high = min(scores), max(scores)
    if high <= low:
        return solutions[0]
    cutoff = low + BIC_THRESHOLD * (high - low)
    for solution in solutions:  # ascending k: smallest adequate k wins
        if solution.bic >= cutoff:
            return solution
    return solutions[-1]  # pragma: no cover - cutoff <= high guarantees a hit

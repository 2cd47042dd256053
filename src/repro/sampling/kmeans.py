"""Seeded, dependency-free k-means with BIC-driven k selection.

A deliberately small implementation — the point sets here are tiny (one
point per profiling interval: tens, not millions), so clarity and
determinism beat asymptotics:

* k-means++ initialisation from a :class:`random.Random` seeded by the
  plan, Lloyd iterations with index-order tie-breaking, empty clusters
  repaired by stealing the point farthest from its centroid.  Identical
  inputs and seeds produce identical assignments in any process.
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
) -> List[Point]:
    """k-means++ seeding: spread initial centroids by squared distance."""
    centroids: List[Point] = [points[rng.randrange(len(points))]]
    dist = [_sq_dist(p, centroids[0]) for p in points]
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
        centroids.append(points[chosen])
        for index, point in enumerate(points):
            candidate = _sq_dist(point, centroids[-1])
            if candidate < dist[index]:
                dist[index] = candidate
    return centroids


def _assign(points: List[Point], centroids: List[Point]) -> List[int]:
    count = len(centroids)
    dims = len(points[0]) if points else 0
    assignments = []
    for point in points:
        best, best_dist = 0, _sq_dist(point, centroids[0])
        for index in range(1, count):
            centroid = centroids[index]
            # Inlined squared distance with early abandonment: partial
            # sums are monotone, so bailing at best_dist can never flip
            # the (strict, lowest-index-wins) argmin below.
            total = 0.0
            for dim in range(dims):
                diff = point[dim] - centroid[dim]
                total += diff * diff
                if total >= best_dist:
                    break
            else:
                if total < best_dist:  # strict: ties keep the lowest index
                    best, best_dist = index, total
        assignments.append(best)
    return assignments


def _bic(points: List[Point], assignments: List[int], k: int) -> float:
    """X-means BIC under identical spherical Gaussians per cluster."""
    n = len(points)
    dims = len(points[0])
    sizes = [0] * k
    for cluster in assignments:
        sizes[cluster] += 1
    centroids: List[List[float]] = []
    for cluster in range(k):
        members = [i for i, c in enumerate(assignments) if c == cluster]
        centroids.append(
            _mean(points, members, dims) if members else [0.0] * dims
        )
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
    centroids = _init_plusplus(pts, k, rng)
    assignments = _assign(pts, centroids)
    dims = len(pts[0])
    for _ in range(MAX_ITERATIONS):
        # Recompute centroids; repair empty clusters by stealing the
        # globally farthest point (keeps k populated and deterministic).
        new_centroids: List[Point] = []
        for cluster in range(k):
            members = [i for i, c in enumerate(assignments) if c == cluster]
            if members:
                new_centroids.append(_mean(pts, members, dims))
            else:
                farthest = max(
                    range(len(pts)),
                    key=lambda i: (_sq_dist(pts[i], centroids[assignments[i]]), -i),
                )
                new_centroids.append(list(pts[farthest]))
        new_assignments = _assign(pts, new_centroids)
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

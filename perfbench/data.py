"""Seeded inputs and the independent float64 ground truth.

Everything here is the benchmark's own NumPy code: the program under test
only ever receives the arrays these functions return, and the answers it
gives are judged against :func:`knn_truth` / :func:`ball_truth`, which
share no code with ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The input make-up every workload uses (see README.md, "Inputs").
N_POINTS = 50_000
DIM = 128
K = 10
NUM_CLUSTERS = 50
CENTRE_BOX = 10.0
SIGMA = 6.0
NUM_QUERIES = 200
FIXED_SEED = 0
#: Candidates the expanded-norm form shortlists beyond k, and queries per block.
SHORTLIST_SLACK = 32
BLOCK = 64


@dataclass(frozen=True)
class Inputs:
    """One seed's data, held-out queries and the generator streams the
    workloads draw their schedules and ingest points from."""

    data: np.ndarray
    queries: np.ndarray
    centres: np.ndarray
    schedule_rng: np.random.Generator
    ingest_rng: np.random.Generator

    def fresh_points(self, count: int) -> np.ndarray:
        """New points from the same cluster mixture (for ``add``)."""
        return _mixture(self.ingest_rng, self.centres, count)


def _mixture(rng: np.random.Generator, centres: np.ndarray, count: int) -> np.ndarray:
    labels = rng.integers(0, centres.shape[0], size=count)
    return centres[labels] + rng.normal(0.0, SIGMA, size=(count, centres.shape[1]))


def make_inputs(
    seed: int,
    n: int = N_POINTS,
    d: int = DIM,
    num_queries: int = NUM_QUERIES,
    num_clusters: int = NUM_CLUSTERS,
) -> Inputs:
    """Gaussian-cluster mixture: centres uniform in [-10, 10]^d, sigma 6.

    The centres and the arrival schedules are part of the workload's
    definition and the same for every seed (drawn from
    :data:`FIXED_SEED`): runs differ in which points, queries and ingest
    points they draw, not in how much the clusters overlap or how bursty
    a 240-request Poisson sample happens to be.  The same seed gives the
    same arrays; each stream is independent of the others, so a workload
    that draws more of one never shifts another.
    """
    centres_ss, schedule_ss = np.random.SeedSequence(FIXED_SEED).spawn(2)
    centres = np.random.default_rng(centres_ss).uniform(
        -CENTRE_BOX, CENTRE_BOX, size=(num_clusters, d)
    )
    data_ss, query_ss, ingest_ss = np.random.SeedSequence(seed).spawn(3)
    data = _mixture(np.random.default_rng(data_ss), centres, n)
    queries = _mixture(np.random.default_rng(query_ss), centres, num_queries)
    return Inputs(
        data=data,
        queries=queries,
        centres=centres,
        schedule_rng=np.random.default_rng(schedule_ss),
        ingest_rng=np.random.default_rng(ingest_ss),
    )


def direct_distances(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """sqrt(sum((x - q)^2)) row by row: the reference distance formula."""
    diff = points - query
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _squared_expansion(data: np.ndarray, norms: np.ndarray, block: np.ndarray) -> np.ndarray:
    """||x||^2 - 2 x.q + ||q||^2 for a block of queries (candidate filter only)."""
    sq = norms[None, :] - 2.0 * (block @ data.T) + np.einsum("ij,ij->i", block, block)[:, None]
    return np.maximum(sq, 0.0)


def knn_truth(
    data: np.ndarray,
    queries: np.ndarray,
    k: int,
    excluded: np.ndarray | None = None,
):
    """Exact k nearest neighbours by float64 brute force.

    The expanded-norm form only shortlists ``k + SHORTLIST_SLACK``
    candidates per query; their distances are then recomputed with the
    direct formula and ordered by ``(distance, id)``.  *excluded* is an
    optional ``(Q, n)`` boolean mask of rows each query must not see (not
    yet added, or deleted).  Returns ``(ids, dists)``.
    """
    data = np.asarray(data, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    norms = np.einsum("ij,ij->i", data, data)
    take = min(k + SHORTLIST_SLACK, data.shape[0])
    ids = np.empty((queries.shape[0], k), dtype=np.int64)
    dists = np.empty((queries.shape[0], k), dtype=np.float64)
    for start in range(0, queries.shape[0], BLOCK):
        stop = min(start + BLOCK, queries.shape[0])
        sq = _squared_expansion(data, norms, queries[start:stop])
        if excluded is not None:
            sq = np.where(excluded[start:stop], np.inf, sq)
        shortlist = np.argpartition(sq, take - 1, axis=1)[:, :take]
        for row, q in enumerate(range(start, stop)):
            cand = shortlist[row]
            cand = cand[np.isfinite(sq[row, cand])]
            true = direct_distances(data[cand], queries[q])
            order = np.lexsort((cand, true))[:k]
            ids[q] = cand[order]
            dists[q] = true[order]
    return ids, dists


def ball_truth(data: np.ndarray, queries: np.ndarray, radius: float):
    """Ids of every point within *radius* of each query (direct distances
    for everything the expanded form places near or inside the ball)."""
    data = np.asarray(data, dtype=np.float64)
    norms = np.einsum("ij,ij->i", data, data)
    balls = []
    for start in range(0, queries.shape[0], BLOCK):
        sq = _squared_expansion(data, norms, queries[start : start + BLOCK])
        for row, query in enumerate(queries[start : start + BLOCK]):
            near = np.flatnonzero(sq[row] <= (radius * 1.001) ** 2)
            true = direct_distances(data[near], query)
            balls.append(near[true <= radius])
    return balls

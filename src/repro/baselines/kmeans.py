"""K-means: sequential and SPMD-parallel (Stoffel & Belkoniene style).

The parallel form mirrors P-AutoClass's decomposition exactly —

1. every rank assigns its block's items to the nearest centroid
   (the k-means "E-step", like ``update_wts`` but hard and cheap);
2. one Allreduce sums the per-cluster ``[count, coordinate sums]``
   statistics (like ``update_parameters``'s packed reduction);
3. every rank recomputes identical centroids.

Same semantics as sequential k-means for any rank count (tested), and
the same communication pattern as the paper's algorithm, which is what
makes the EXP-B1 cost comparison apples-to-apples.

Operates on the real attributes of a :class:`~repro.data.Database`
(k-means has no native story for categorical or missing data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.database import Database
from repro.mpc.api import Communicator
from repro.util import workhooks
from repro.util.rng import spawn_rng
from repro.util.validation import check_positive


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means run."""

    centroids: np.ndarray  # (k, d)
    labels: np.ndarray  # (n_local,) — local block's labels in parallel runs
    inertia: float  # global sum of squared distances
    n_iter: int
    converged: bool


def _real_matrix(db: Database) -> np.ndarray:
    idx = db.schema.real_indices
    if not idx:
        raise ValueError("k-means needs at least one real attribute")
    for i in idx:
        if db.missing[i].any():
            raise ValueError(
                f"k-means cannot handle missing values "
                f"(attribute {db.schema[i].name!r})"
            )
    return db.real_matrix()


def _plusplus_init(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding (on the full data — init is replicated)."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = np.sum((x - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j:] = x[rng.integers(n, size=k - j)]
            break
        probs = d2 / total
        centroids[j] = x[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((x - centroids[j]) ** 2, axis=1))
    return centroids


def _assign(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per item; returns (labels, squared distances)."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the x^2 term is constant
    # per item and irrelevant for the argmin but needed for inertia.
    cross = x @ centroids.T  # (n, k)
    c2 = np.sum(centroids**2, axis=1)
    scores = c2[None, :] - 2.0 * cross
    labels = np.argmin(scores, axis=1)
    d2 = np.sum(x**2, axis=1) + scores[np.arange(x.shape[0]), labels]
    return labels, np.maximum(d2, 0.0)


def _local_stats(
    x: np.ndarray, labels: np.ndarray, d2: np.ndarray, k: int
) -> np.ndarray:
    """Additive per-cluster stats: [count, sum of coords..., inertia]."""
    d = x.shape[1]
    stats = np.zeros((k, d + 1), dtype=np.float64)
    np.add.at(stats[:, 0], labels, 1.0)
    np.add.at(stats[:, 1:], labels, x)
    flat = np.concatenate([stats.reshape(-1), [d2.sum()]])
    return flat


def _finalize(
    flat: np.ndarray, k: int, d: int, old_centroids: np.ndarray
) -> tuple[np.ndarray, float]:
    """New centroids from global stats; empty clusters keep their spot."""
    inertia = float(flat[-1])
    stats = flat[:-1].reshape(k, d + 1)
    counts = stats[:, 0]
    centroids = old_centroids.copy()
    occupied = counts > 0
    centroids[occupied] = stats[occupied, 1:] / counts[occupied, None]
    return centroids, inertia


def parallel_kmeans(
    comm: Communicator,
    local_db: Database,
    k: int,
    *,
    full_db: Database | None = None,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> KMeansResult:
    """SPMD k-means over a block-partitioned database.

    ``full_db`` (replicated) seeds k-means++ identically on every rank;
    without it, rank 0's block seeds and the centroids are broadcast.
    Convergence: maximum centroid movement below ``tol`` — a replicated
    decision, since every rank holds identical centroids.
    """
    check_positive("k", k)
    check_positive("max_iter", max_iter)
    x = _real_matrix(local_db)
    d = x.shape[1]

    if full_db is not None:
        centroids = _plusplus_init(_real_matrix(full_db), k, spawn_rng(seed))
    else:
        seeds = (
            _plusplus_init(x, k, spawn_rng(seed)) if comm.rank == 0 else None
        )
        centroids = np.asarray(comm.bcast(seeds, root=0))

    labels = np.zeros(x.shape[0], dtype=np.int64)
    inertia = np.inf
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        workhooks.report("wts", x.shape[0], k, d)
        labels, d2 = _assign(x, centroids)
        workhooks.report("params", x.shape[0], k, d)
        flat = _local_stats(x, labels, d2, k)
        flat = np.asarray(comm.allreduce(flat))
        new_centroids, inertia = _finalize(flat, k, d, centroids)
        movement = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if movement < tol:
            converged = True
            break
    return KMeansResult(
        centroids=centroids,
        labels=labels,
        inertia=inertia,
        n_iter=n_iter,
        converged=converged,
    )


def kmeans(
    db: Database,
    k: int,
    *,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> KMeansResult:
    """Sequential k-means (the one-rank case of the parallel algorithm)."""
    from repro.mpc.serial import SerialComm

    return parallel_kmeans(
        SerialComm(), db, k, full_db=db, seed=seed, max_iter=max_iter, tol=tol
    )

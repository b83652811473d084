"""Block partitioning of a database over SPMD ranks.

P-AutoClass "divid[es] up the dataset among the processors" in equal
contiguous blocks — no replication, no load-balancing machinery needed
because every rank runs the same code on (near-)equal item counts.
The first ``n_items % n_ranks`` ranks get one extra item, the standard
balanced-block rule, so partition sizes differ by at most one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.data.database import Database


def partition_bounds(n_items: int, n_ranks: int, rank: int) -> tuple[int, int]:
    """Half-open item range ``[lo, hi)`` owned by ``rank``.

    Deterministic pure function of its arguments, so every rank computes
    its own bounds without communication — exactly how the SPMD program
    establishes ownership.
    """
    if n_ranks <= 0:
        raise ValueError(f"n_ranks must be positive, got {n_ranks}")
    if not 0 <= rank < n_ranks:
        raise ValueError(f"rank {rank} out of range for {n_ranks} ranks")
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    base, extra = divmod(n_items, n_ranks)
    lo = rank * base + min(rank, extra)
    hi = lo + base + (1 if rank < extra else 0)
    return lo, hi


def block_partition(db: Database, n_ranks: int, rank: int) -> Database:
    """The sub-database owned by ``rank``: ``db.block(n_ranks, rank)``."""
    return db.block(n_ranks, rank)


def partition_sizes(n_items: int, n_ranks: int) -> np.ndarray:
    """Item counts per rank; sums to ``n_items``, spread differs by <= 1."""
    return np.array(
        [partition_bounds(n_items, n_ranks, r)[1] - partition_bounds(n_items, n_ranks, r)[0]
         for r in range(n_ranks)],
        dtype=np.int64,
    )


def block_partition_array(arr: np.ndarray, n_ranks: int, rank: int) -> np.ndarray:
    """Slice any leading-axis array with the same bounds as the database.

    Used to split the replicated initial weight matrix so that the
    parallel run starts from byte-identical state to the sequential run.
    """
    lo, hi = partition_bounds(arr.shape[0], n_ranks, rank)
    return arr[lo:hi]

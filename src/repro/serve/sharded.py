"""Sharded bulk scoring: data-parallel prediction on every SPMD world.

Huge offline batches get the same treatment the paper gives training
data: block-partition the items over the ranks
(:meth:`repro.data.database.Database.block` — identical bounds to the
training-time partition), score each block with the allocation-free
kernel path, and allgather the per-block outputs so every rank holds
the full result.  There is no reduction — scoring is embarrassingly
parallel — so the only collective is the final label allgather, and
the sharded result is *identical* to the unsharded one (a tested
invariant on all four worlds).

The SPMD body :func:`sharded_score_rank` is a plain module-level
function (the processes world pickles it into forked workers); the
:func:`sharded_predict` / :func:`sharded_score_batch` drivers run it on
``"serial"``, ``"threads"``, ``"processes"`` or ``"sim"`` (the virtual
CS-2, which also prices what a scoring fleet would cost on the paper's
hardware).
"""

from __future__ import annotations

import numpy as np

from repro.data.database import Database
from repro.mpc.api import CollectiveConfig
from repro.serve.artifact import FittedModel
from repro.serve.scoring import BatchScores, score_batch
from repro.worlds import WORLDS, run_world

#: Worlds :func:`sharded_predict` accepts.
SHARD_BACKENDS = WORLDS


def sharded_score_rank(
    comm, model: FittedModel, db: Database
) -> BatchScores:
    """SPMD body: score my block, allgather, return the *full* scores.

    Every rank returns the complete :class:`BatchScores` for ``db`` —
    the allgather-of-labels protocol, extended to all three outputs.
    Blocks may be empty (more ranks than items); concatenation handles
    the zero-row arrays.  ``db.block`` is a zero-copy slice of an
    in-memory database, or a shard-backed view of a
    :class:`~repro.data.shards.ShardedDatabase` (opened by path in
    forked workers and scored chunk by chunk, so nothing materializes
    the dataset).
    """
    local = db.block(comm.size, comm.rank)
    mine = score_batch(local, model.classification)
    parts: list[BatchScores] = comm.allgather(mine)
    return BatchScores(
        labels=np.concatenate([p.labels for p in parts]),
        log_proba=np.concatenate([p.log_proba for p in parts]),
        log_evidence=np.concatenate([p.log_evidence for p in parts]),
    )


def sharded_score_batch(
    model: FittedModel,
    db: Database,
    *,
    backend: str = "threads",
    n_processors: int = 4,
    collectives: CollectiveConfig | None = None,
    transport: str = "shm",
) -> BatchScores:
    """Score ``db`` data-parallel over ``n_processors`` ranks.

    ``transport`` picks the processes world's wire ("shm" | "pipe");
    the other backends ignore it.  Returns rank 0's (complete)
    :class:`BatchScores`; all ranks hold the same arrays by
    construction.
    """
    results, _sim_elapsed = run_world(
        backend, n_processors, sharded_score_rank, model, db,
        collectives=collectives, transport=transport,
    )
    return results[0]


def sharded_predict(
    model: FittedModel,
    db: Database,
    *,
    backend: str = "threads",
    n_processors: int = 4,
    collectives: CollectiveConfig | None = None,
    transport: str = "shm",
) -> np.ndarray:
    """Hard labels for ``db``, computed data-parallel (see module doc)."""
    return sharded_score_batch(
        model, db, backend=backend, n_processors=n_processors,
        collectives=collectives, transport=transport,
    ).labels

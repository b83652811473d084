"""Top-level P-AutoClass drivers.

Two entry points for two data-placement situations:

* :func:`run_pautoclass` — *replicated input*: every rank is handed the
  full database (cheap to arrange when data is generated or read from a
  shared filesystem, as in the paper's experiments) and slices its own
  block.  All init methods work, including ``"seeded"``.
* :func:`run_pautoclass_partitioned` — *distributed input*: each rank
  holds only its block.  The global :class:`~repro.models.summary.
  DataSummary` (prior anchors, model selection) is reconstructed with
  one startup Allreduce of additive moments, so no rank ever sees
  another rank's items — the paper's "does not require to replicate the
  entire dataset" property.

Both return the same :class:`~repro.engine.search.SearchResult` on every
rank, and both run the one BIG_LOOP,
:func:`repro.engine.search.run_search`, as decomposed by
:func:`repro.parallel.psearch.run_parallel_search`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.data.database import Database
from repro.engine.search import SearchConfig, SearchResult, search_config_for
from repro.models.registry import ModelSpec
from repro.models.summary import DataSummary
from repro.mpc.api import Communicator
from repro.parallel.psearch import run_parallel_search

if TYPE_CHECKING:
    from repro.ckpt import CheckpointSpec


def run_pautoclass(
    comm: Communicator,
    db: Database,
    config: SearchConfig | None = None,
    spec: ModelSpec | None = None,
    kernels: str | None = None,
    ckpt: "CheckpointSpec | None" = None,
    try_groups: int | str | None = None,
) -> SearchResult:
    """P-AutoClass over a database replicated on every rank.

    ``kernels`` selects the local E/M implementation on every rank
    (``None`` → the fused kernels).
    ``ckpt`` — a picklable :class:`repro.ckpt.CheckpointSpec` — enables
    checkpoint/restart; each rank materializes its own
    :class:`~repro.ckpt.Checkpointer` (rank 0 of the search's
    communicator writes, all restore).
    ``try_groups`` picks the decomposition: ``None`` or ``"auto"`` —
    the default — lets the closed-form rule of
    :func:`repro.parallel.psearch.resolve_try_groups` choose the group
    count G per fit; ``1`` is the paper's structure (every cycle split
    over all ranks); G > 1 runs the tries concurrently across G
    sub-communicator groups, each the one search loop over its own
    tries — see :func:`repro.parallel.psearch.run_parallel_search`.

    Each rank fits ``db.block(comm.size, comm.rank)``: a zero-copy
    slice of an in-memory database, or a shard-backed view of a
    :class:`~repro.data.shards.ShardedDatabase` (no rank materializes
    the dataset and the search streams with O(chunk) peak heap; it
    needs a streamable ``init_method``).
    """
    if spec is None:
        spec = ModelSpec.default_for(db.schema, DataSummary.from_database(db))
    return run_parallel_search(
        comm,
        db.block(comm.size, comm.rank),
        spec,
        n_total_items=db.n_items,
        config=config,
        full_db=db,
        kernels=kernels,
        checkpointer=None if ckpt is None else ckpt.build(comm.rank),
        try_groups=try_groups,
    )


def run_pautoclass_partitioned(
    comm: Communicator,
    local_db: Database,
    config: SearchConfig | None = None,
    spec: ModelSpec | None = None,
    kernels: str | None = None,
    ckpt: "CheckpointSpec | None" = None,
) -> SearchResult:
    """P-AutoClass where each rank holds only its own block.

    The global data summary is assembled with one Allreduce of additive
    moment vectors; if ``spec`` is not given, every rank derives the
    identical default model from that shared summary.  The search is
    always the paper's single-level one (``try_groups=1``): try groups
    re-partition the full database, which no rank holds here.
    """
    config = search_config_for(config, seedable=False)
    moments = DataSummary.local_moments(local_db)
    moments = comm.allreduce(moments)
    summary = DataSummary.from_moments(local_db.schema, moments)
    if spec is None:
        spec = ModelSpec.default_for(local_db.schema, summary)
    return run_parallel_search(
        comm,
        local_db,
        spec,
        n_total_items=summary.n_items,
        config=config,
        full_db=None,
        kernels=kernels,
        checkpointer=None if ckpt is None else ckpt.build(comm.rank),
        try_groups=1,
    )

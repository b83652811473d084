"""Parallel ``base_cycle`` — one EM iteration of P-AutoClass.

There is one EM cycle (:func:`repro.engine.cycle.base_cycle`, written
as ``chunks x reducer``); the parallel cycle is that function handed
this rank's block and a communicating reducer
(:mod:`repro.parallel.reducers`).  ``update_approximations`` runs
replicated: its inputs are all global after the cycle's reduction, so
it needs no communication — matching the paper's observation that its cost
is negligible.
"""

from __future__ import annotations

import numpy as np

from repro.engine.classification import Classification
from repro.engine.cycle import CycleStats, base_cycle
from repro.mpc.api import Communicator
from repro.parallel.reducers import reducer_for


def parallel_base_cycle(
    local_db,
    clf: Classification,
    n_total_items: int,
    comm: Communicator,
    *,
    plan=None,
) -> tuple[Classification, np.ndarray | None, CycleStats]:
    """One P-AutoClass EM cycle over this rank's block.

    Returns ``(new_clf, local_wts, stats)``.  The returned
    classification — parameters *and* scores — is identical on every
    rank (same reduced inputs, same pure finalization).  ``plan`` — a
    :class:`repro.parallel.packed.ReductionPlan` for this try — supplies
    the buffer the cycle's packed reduction runs in place through (one
    is made per call otherwise).

    A :class:`~repro.data.shards.ShardedDatabase` block view streams
    the local halves chunk-by-chunk with O(chunk) peak heap; the two
    Allreduce cut points (payload layouts, order, granularity) are
    identical, and the returned local weights are ``None``.
    """
    return base_cycle(
        local_db, clf, n_total_items=n_total_items,
        reducer=reducer_for(comm, clf.n_classes, clf.spec, plan=plan),
    )

"""P-AutoClass — the paper's contribution.

SPMD parallel AutoClass for distributed-memory machines: the dataset is
block-partitioned over the ranks, the BIG_LOOP control flow is
replicated, and each ``base_cycle`` crosses the paper's two Allreduce
cut points — the class weight totals of ``update_wts`` (paper Figure 4)
and the packed parameter statistics of ``update_parameters`` (paper
Figure 5) — in one blocking packed Allreduce.  The cycle, the
initializer and the BIG_LOOP exist once, in :mod:`repro.engine`,
written against a *reducer*; this package hands
them a communicating one — so the reproduction's guarantee that the
parallel semantics equal the sequential ones is structural: sequential
AutoClass is the same program at P = 1.

Entry points:

* :func:`run_pautoclass` — the one SPMD fit program: every rank is
  handed the whole input — an in-memory database or a
  :class:`~repro.data.shards.ShardedDatabase` view — and fits its own
  block of it, so distributed input is a shard view whose ranks each
  map only the shards their block overlaps;
* :mod:`repro.parallel.reducers` — the communicating reducers the one
  EM cycle (:func:`repro.engine.cycle.base_cycle`) crosses its cut
  points with: identity on a size-1 world, one blocking packed
  Allreduce otherwise.

Every rank runs the fused E/M path; the reference one is only the
sequential oracle :mod:`repro.verify` compares against.
"""

from repro.parallel.packed import ReductionPlan
from repro.parallel.pcycle import parallel_base_cycle
from repro.parallel.psearch import (
    check_try_groups,
    resolve_try_groups,
    run_pautoclass,
)
from repro.parallel.reducers import (
    BlockingReducer,
    WorldReducer,
    reducer_for,
)

__all__ = [
    "BlockingReducer",
    "ReductionPlan",
    "WorldReducer",
    "check_try_groups",
    "parallel_base_cycle",
    "reducer_for",
    "resolve_try_groups",
    "run_pautoclass",
]

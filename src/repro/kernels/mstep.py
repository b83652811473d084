"""Fused M-step: the packed sufficient statistics as one GEMM.

Every term's weighted sufficient statistics are linear in the plan's
design features — ``stats[j, s] = Σ_i design[i, s] · wts[i, j]``
— so the whole local M-step collapses to ``wts.T @ design``, whose
``(n_classes, n_stats)`` result *is* the packed Allreduce payload of
:func:`repro.models.registry.pack_stats` (the plan stacks design
columns in registry order).

Compared to the reference path this replaces, per cycle:

* three GEMVs plus a ``column_stack`` per normal term,
* a ``np.add.at`` scatter per multinomial term (notoriously slow), and
* the pairwise-product temporary per multi-normal term,

with a single BLAS-3 call that reads the weight matrix once.
"""

from __future__ import annotations

import numpy as np

from repro.data.database import Database
from repro.kernels.plan import get_plan
from repro.models.registry import ModelSpec
from repro.obs import recorder as obs
from repro.util import workhooks


def fused_local_update_parameters(
    db: Database, spec: ModelSpec, wts: np.ndarray
) -> np.ndarray:
    """Local packed statistics via one GEMM against the cached design.

    Same contract as :func:`repro.engine.params.local_update_parameters`.
    """
    workhooks.report("params", db.n_items, wts.shape[1], spec.n_stats)
    obs.current().count("mstep.fused")
    return np.matmul(wts.T, get_plan(db, spec).design)

"""``repro.kernels`` — the fused, allocation-free E/M hot-path layer.

The paper's scaling argument (and this repo's T1 profile) puts ~99.5 %
of runtime in ``base_cycle``, dominated by the local halves of
``update_wts`` and ``update_parameters``.  Both reduce statistics that
are additive over items, and every term's log density and statistics
are linear in one per-item feature matrix, so each half is one GEMM —
without touching the algorithm's semantics or the paper's two
Allreduce cut points:

* :mod:`~repro.kernels.plan` — per-``(Database, ModelSpec)`` cached
  :class:`KernelPlan` (the augmented design matrix);
* :mod:`~repro.kernels.workspace` — per-thread :class:`Workspace`
  buffer pool keyed by ``(n_items, n_classes)``;
* :mod:`~repro.kernels.estep` — the log-joint GEMM plus the fused
  normalize-and-payload pass;
* :mod:`~repro.kernels.mstep` — the packed-statistics GEMM;
* :mod:`~repro.kernels.config` — the ``"fused"``/``"reference"`` switch
  (the reference path is ``repro.verify``'s differential oracle).

See ``docs/kernels.md`` for the lifecycle and layout details.
"""

from repro.kernels.config import KERNEL_MODES, resolve
from repro.kernels.estep import (
    fused_compute_log_joint,
    fused_local_update_wts,
    fused_normalize_and_payload,
)
from repro.kernels.mstep import fused_local_update_parameters
from repro.kernels.plan import (
    KernelPlan,
    clear_plan_cache,
    get_plan,
    plan_cache_stats,
)
from repro.kernels.workspace import (
    Workspace,
    clear_workspaces,
    get_workspace,
    workspace_stats,
)

__all__ = [
    "KERNEL_MODES",
    "KernelPlan",
    "Workspace",
    "clear_plan_cache",
    "clear_workspaces",
    "fused_compute_log_joint",
    "fused_local_update_parameters",
    "fused_local_update_wts",
    "fused_normalize_and_payload",
    "get_plan",
    "get_workspace",
    "plan_cache_stats",
    "resolve",
    "workspace_stats",
]

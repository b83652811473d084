"""Kernel-mode selection: ``"fused"`` vs ``"reference"``.

The engine's E/M hot path exists in two interchangeable implementations:

* ``"fused"`` — the allocation-free :mod:`repro.kernels` layer (plan +
  workspace cached, single-GEMM statistics, in-place normalization);
* ``"reference"`` — the straightforward per-term numpy path the repo
  was seeded with, retained verbatim as the :mod:`repro.verify` oracle.

The one selector is the explicit ``kernels=`` argument threaded through
every engine call site; ``None`` means ``"fused"``.  Above the engine it
is not a user option: estimator fits and serving run ``"fused"``, and
only :mod:`repro.verify` fits ``"reference"`` (through
:attr:`repro.api.FitJob.kernels`), as its oracle.  There is deliberately no
process-wide switch: all ranks of one run must execute the same kernel
implementation to keep the replicated control flow bit-identical, and an
argument carried by the fit is the only thing every rank of every world
(threads, forked or spawned processes) is guaranteed to see alike.
"""

from __future__ import annotations

#: The two selectable kernel implementations.
KERNEL_MODES = ("fused", "reference")


def resolve(kernels: str | None) -> str:
    """Validate an explicit mode; ``None`` is ``"fused"``."""
    if kernels is None:
        return "fused"
    if kernels not in KERNEL_MODES:
        raise ValueError(f"kernels {kernels!r} not in {KERNEL_MODES}")
    return kernels

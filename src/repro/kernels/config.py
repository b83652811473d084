"""Kernel-mode selection: ``"fused"`` vs ``"reference"``.

The engine's E/M hot path exists in two interchangeable implementations:

* ``"fused"`` — the allocation-free :mod:`repro.kernels` layer (plan +
  workspace cached, single-GEMM statistics, in-place normalization);
* ``"reference"`` — the straightforward per-term numpy path the repo
  was seeded with, retained verbatim as the :mod:`repro.verify` oracle.

The one selector is the explicit ``kernels=`` argument threaded through
every engine call site; ``None`` means ``"fused"``.  Above the engine it
is not a user option: estimator fits, every rank of a parallel fit and
serving run ``"fused"``, and only :mod:`repro.verify` fits
``"reference"`` — sequentially, calling
:func:`~repro.engine.search.run_search` with no world — as its oracle.
There is deliberately no process-wide switch: the one sequential oracle
fit carries its choice as an argument, so no other fit can pick it up.
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

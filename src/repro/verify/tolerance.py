"""The conformance tolerance model.

The paper's claim is *equality*: P-AutoClass on P ranks computes the
same classification sequential AutoClass does.  Floating point makes
"same" a three-valued word, so the tolerance model is explicit about
which of three regimes applies to a pair of runs:

* **bitwise** — the two runs perform the identical sequence of float
  operations, so every compared number must match to the last bit.
  This holds across *worlds* (serial / threads / processes / sim are
  the same SPMD program over the same collectives) whenever the world
  size and the kernel path agree.  Cross-world bitwise equality is the
  strong claim this subsystem exists to enforce.
* **reduction-order** — the runs reassociate the two Allreduce sums
  differently: the one recursive-doubling schedule's association is a
  function of the world size alone.  IEEE addition is not associative, so
  per-cycle scores agree only to accumulated rounding; the bound below
  is the one the repo's sequential/parallel equivalence tests have
  used since PR 1 (relative 1e-9 over paper-scale payloads).
* **kernel** — fused vs reference kernels.  The fused Gaussian uses
  the expanded quadratic ``a·x² + b·x + c`` which loses ``~eps·x²/σ²``
  absolute precision; the measured cross-kernel agreement is ~1e-13
  relative on paper-scale data, bounded here at 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Class-map flips are tolerated only where the item's top-1/top-2
#: membership margin is below this (a genuinely ambiguous item whose
#: argmax is decided by the last bits of a reduction).
MARGIN_EPS = 1e-6


@dataclass(frozen=True)
class Tolerance:
    """Elementwise comparison bound: ``|a - b| <= abs + rel * |b|``."""

    rel: float
    abs: float
    label: str

    def allows(self, a: float, b: float) -> bool:
        """True when ``a`` conforms to reference ``b`` under this bound.

        NaN never conforms (a NaN anywhere in a trace is itself a bug
        this subsystem exists to catch); ``inf`` conforms only to the
        identical ``inf``.
        """
        if np.isnan(a) or np.isnan(b):
            return False
        if a == b:  # covers the bitwise case and equal infinities
            return True
        if np.isinf(a) or np.isinf(b):
            return False
        return abs(a - b) <= self.abs + self.rel * abs(b)

    def max_err(self, a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
        """``(max_abs_err, max_rel_err)`` over the compared values."""
        a = np.asarray(a, dtype=np.float64).reshape(-1)
        b = np.asarray(b, dtype=np.float64).reshape(-1)
        if a.size == 0:
            return 0.0, 0.0
        diff = np.abs(a - b)
        denom = np.maximum(np.abs(b), np.finfo(np.float64).tiny)
        with np.errstate(invalid="ignore"):
            return float(np.nanmax(diff)), float(np.nanmax(diff / denom))

    def combined(self, other: "Tolerance") -> "Tolerance":
        """The looser of two bounds (both difference axes apply)."""
        if other.rel <= self.rel and other.abs <= self.abs:
            return self
        if self.rel <= other.rel and self.abs <= other.abs:
            return other
        return Tolerance(
            rel=max(self.rel, other.rel),
            abs=max(self.abs, other.abs),
            label=f"{self.label}+{other.label}",
        )


#: Identical operation sequence: equality to the last bit.
BITWISE = Tolerance(rel=0.0, abs=0.0, label="bitwise")

#: Different Allreduce summation order (world size).
REDUCTION_ORDER = Tolerance(rel=1e-9, abs=1e-9, label="reduction-order")

#: Fused vs reference kernel path (expanded-quadratic Gaussian).
KERNEL = Tolerance(rel=1e-8, abs=1e-8, label="kernel")


def resolve_tolerance(meta_a, meta_b) -> Tolerance:
    """Tolerance for comparing two runs, from their trace metadata.

    ``meta_a`` / ``meta_b`` carry ``size`` (world size) and ``kernels``
    (``"fused"``/``"reference"``); see
    :class:`repro.verify.trace.TraceMeta`.  The *world* never loosens
    the bound — cross-world runs of the same shape are bitwise.
    """
    tol = BITWISE
    if meta_a.kernels != meta_b.kernels:
        tol = tol.combined(KERNEL)
    if meta_a.size != meta_b.size:
        tol = tol.combined(REDUCTION_ORDER)
    return tol

"""``repro.verify`` — cross-backend conformance + golden regression.

The subsystem that makes the paper's central claim machine-checkable:
P-AutoClass on P ranks computes *the same classification* sequential
AutoClass does, across every world (serial / threads / processes /
sim) and kernel path (fused / reference).

Three layers:

* :mod:`repro.verify.tolerance` — the explicit tolerance model
  (bitwise where the operation sequence is fixed, bounded
  reduction-order / kernel tolerances where it provably is not);
* :mod:`repro.verify.trace` / :mod:`repro.verify.conformance` — run
  traces and their lockstep comparison, producing first-divergence
  reports (:class:`ConformanceReport`) or raising
  :class:`ConformanceError` in strict mode;
* :mod:`repro.verify.harness` — the differential matrix over the
  golden corpus, regenerable via ``python -m repro.verify --regen``.

``AutoClass.fit`` / ``PAutoClass.fit`` accept ``verify="off" | "trace"
| "strict"`` to run a shadow reference fit and attach (or enforce) a
conformance report on every user-level run.
"""

from repro.verify.conformance import (
    ConformanceError,
    ConformanceReport,
    Divergence,
    compare_traces,
)
from repro.verify.harness import (
    CORPUS,
    CorpusCase,
    MatrixResult,
    corpus_case,
    load_golden,
    regen_golden,
    run_case_matrix,
    run_full_matrix,
    write_golden,
)
from repro.verify.tolerance import (
    BITWISE,
    KERNEL,
    MARGIN_EPS,
    REDUCTION_ORDER,
    Tolerance,
    resolve_tolerance,
)
from repro.verify.trace import RunTrace, TraceMeta, capture_trace

__all__ = [
    "BITWISE",
    "CORPUS",
    "ConformanceError",
    "ConformanceReport",
    "CorpusCase",
    "Divergence",
    "KERNEL",
    "MARGIN_EPS",
    "MatrixResult",
    "REDUCTION_ORDER",
    "RunTrace",
    "Tolerance",
    "TraceMeta",
    "capture_trace",
    "compare_traces",
    "corpus_case",
    "load_golden",
    "regen_golden",
    "resolve_tolerance",
    "run_case_matrix",
    "run_full_matrix",
    "write_golden",
]

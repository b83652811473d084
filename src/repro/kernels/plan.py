"""The KernelPlan: the per-``(Database, ModelSpec)`` design matrix.

Everything about the E/M hot path that depends only on the *data* and
the *model form* — never on the current parameter values — is computed
once here and reused for every cycle of every BIG_LOOP try: the
**augmented design matrix** ``design`` of shape ``(n_items, n_stats)``,
one C-order array into whose column slices every term's
:meth:`~repro.models.base.TermModel.design_columns` writes in registry
order (``1``/``x``/``x²`` for normals,
presence and missing indicators plus zero-filled values for ``*_cm``
terms, one-hot symbol indicators for multinomials, pairwise products
for ``multi_normal_cn``).  Its columns are laid out exactly like
:func:`repro.models.registry.pack_stats`, which makes the M-step a
single GEMM: ``wts.T @ design`` *is* the packed statistics array.
Because every term's log density is linear in the same features, the
E-step log joint is the mirror-image GEMM ``design @
coefficients(params)``.

Plans are cached by *object identity* of the (immutable) database and
spec, with weak references so dropping a database frees its plan.  Each
SPMD rank holds one stable ``local_db`` for a whole search, cut into
cached tiles, so every rank builds each tile's plan exactly once.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.data.database import Database
from repro.models.base import TermParams
from repro.models.registry import ModelSpec


class KernelPlan:
    """Precomputed, parameter-independent kernel inputs for one block."""

    def __init__(self, db: Database, spec: ModelSpec) -> None:
        self.spec = spec
        self.design = np.empty((db.n_items, spec.n_stats), dtype=np.float64)
        for term, cols in zip(spec.terms, spec.stat_slices()):
            term.design_columns(db, self.design[:, cols])
        self.design.setflags(write=False)

    def coefficients(
        self, term_params: tuple[TermParams, ...], n_classes: int
    ) -> np.ndarray:
        """``(n_stats, n_classes)`` log-density coefficients at ``params``.

        Satisfies ``design @ coefficients == sum_t log_likelihood_t``; a
        spec whose terms carry no statistics yields a ``(0, J)`` block.
        """
        blocks = []
        for term, params in zip(self.spec.terms, term_params):
            c = term.loglik_coefficients(params)
            if c.shape != (term.n_stats, n_classes):
                raise ValueError(
                    f"{term.spec_name}: coefficients {c.shape} != "
                    f"({term.n_stats}, {n_classes})"
                )
            blocks.append(c)
        return np.concatenate([np.empty((0, n_classes)), *blocks], axis=0)

    @property
    def nbytes(self) -> int:
        return self.design.nbytes


@dataclass
class PlanCacheStats:
    hits: int = 0
    misses: int = 0
    entries: dict = field(default_factory=dict)


# Reentrant: a weakref eviction callback can fire *inside* another
# eviction (popping an entry drops the sibling weakref's last strong
# chain, and if both referents died in the same GC pass the second
# callback runs synchronously under the first's lock scope).
_lock = threading.RLock()
_stats = PlanCacheStats()


def get_plan(db: Database, spec: ModelSpec) -> KernelPlan:
    """The cached plan for this exact ``(db, spec)`` object pair.

    Both operands are immutable, so identity-keyed caching is sound; the
    weakref callbacks evict an entry the moment either operand is
    garbage collected (which also defuses ``id()`` reuse).
    """
    key = (id(db), id(spec))
    with _lock:
        entry = _stats.entries.get(key)
        if entry is not None:
            db_ref, spec_ref, plan = entry
            if db_ref() is db and spec_ref() is spec:
                _stats.hits += 1
                return plan
            del _stats.entries[key]
    plan = KernelPlan(db, spec)

    def _evict(_ref: object, key: tuple[int, int] = key) -> None:
        with _lock:
            _stats.entries.pop(key, None)

    with _lock:
        _stats.entries[key] = (
            weakref.ref(db, _evict),
            weakref.ref(spec, _evict),
            plan,
        )
        _stats.misses += 1
    return plan


def plan_cache_stats() -> PlanCacheStats:
    """Process-wide plan cache counters (observability + tests)."""
    return _stats


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters."""
    with _lock:
        _stats.entries.clear()
        _stats.hits = 0
        _stats.misses = 0

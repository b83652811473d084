"""The ``ignore`` model — AutoClass's attribute-exclusion term.

AutoClass model files can declare attributes as ``ignore``: the column
stays in the database but contributes nothing to the classification
(no statistics, likelihood 1 everywhere, no parameters).  Analysts use
it to mask identifiers or suspect measurements without rebuilding the
data files; the model-level search can also use it to test whether an
attribute carries class structure at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.database import Database
from repro.models.base import TermModel, TermParams


@dataclass(frozen=True)
class IgnoreParams(TermParams):
    """No parameters — the term is inert."""


class IgnoreTerm(TermModel):
    """An attribute excluded from the model (AutoClass ``ignore``)."""

    spec_name = "ignore"

    def __init__(self, attr_index: int) -> None:
        self._index = int(attr_index)

    @property
    def attribute_indices(self) -> tuple[int, ...]:
        return (self._index,)

    @property
    def n_stats(self) -> int:
        return 0

    def validate(self, db: Database) -> None:
        if not 0 <= self._index < len(db.schema):
            raise ValueError(f"attribute index {self._index} out of range")

    def accumulate_stats(self, db: Database, wts: np.ndarray) -> np.ndarray:
        return np.zeros((wts.shape[1], 0), dtype=np.float64)

    def map_params(self, stats: np.ndarray) -> IgnoreParams:
        return IgnoreParams(n_classes=stats.shape[0])

    def log_likelihood(self, db: Database, params: IgnoreParams) -> np.ndarray:
        return np.zeros((db.n_items, params.n_classes), dtype=np.float64)

    # -- GEMM protocol: inert (0 design columns) ------------------------

    def design_columns(self, db: Database, out: np.ndarray) -> None:
        """Nothing to write: ``out`` has no columns."""

    def loglik_coefficients(self, params: IgnoreParams) -> np.ndarray:
        return np.zeros((0, params.n_classes), dtype=np.float64)

    def log_prior_density(self, params: IgnoreParams) -> float:
        return 0.0

    def log_marginal(self, stats: np.ndarray) -> float:
        return 0.0

    def n_free_params(self) -> int:
        return 0

    def influence(
        self, params: IgnoreParams, global_params: IgnoreParams
    ) -> np.ndarray:
        return np.zeros(params.n_classes)

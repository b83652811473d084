"""``single_multinomial`` — the discrete-attribute term.

Each class holds a multinomial over the attribute's symbols under the
AutoClass Dirichlet prior (``alpha = 1 + 1/arity``), giving the classic
AutoClass MAP estimate ``(count + 1/arity) / (total + 1)``.

Missing values follow AutoClass's convention for this model: "unknown"
is treated as **an additional attribute value** when the dataset
contains any (``model_missing=True``), so a class can be characterized
by *not knowing* an attribute.  With ``model_missing=False`` missing
cells simply contribute nothing (log-likelihood 0), which is only valid
for complete columns and is enforced by :meth:`validate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.attributes import DiscreteAttribute
from repro.data.database import Database
from repro.models.base import TermModel, TermParams
from repro.models.priors import DirichletPrior
from repro.models.summary import DataSummary
from repro.util.logspace import safe_log


@dataclass(frozen=True)
class MultinomialParams(TermParams):
    """Per-class symbol probabilities, shape ``(n_classes, n_cells)``.

    ``n_cells`` is ``arity`` or ``arity + 1`` when missing is modelled
    (the last cell is the "unknown" value).
    """

    log_p: np.ndarray  # (n_classes, n_cells)

    @property
    def p(self) -> np.ndarray:
        return np.exp(self.log_p)


class MultinomialTerm(TermModel):
    """Discrete attribute term (AutoClass ``single_multinomial``)."""

    spec_name = "single_multinomial"

    def __init__(
        self,
        attr_index: int,
        attr: DiscreteAttribute,
        summary: DataSummary | None = None,
        *,
        model_missing: bool | None = None,
    ) -> None:
        self._index = int(attr_index)
        self._attr = attr
        if model_missing is None:
            if summary is None:
                raise ValueError(
                    "model_missing must be given explicitly when no summary is provided"
                )
            model_missing = summary.attribute(attr_index).has_missing
        self._model_missing = bool(model_missing)
        self._n_cells = attr.arity + (1 if self._model_missing else 0)
        self._prior = DirichletPrior.autoclass(self._n_cells)

    # -- structure ------------------------------------------------------

    @property
    def attribute_indices(self) -> tuple[int, ...]:
        return (self._index,)

    @property
    def arity(self) -> int:
        return self._attr.arity

    @property
    def model_missing(self) -> bool:
        return self._model_missing

    @property
    def n_cells(self) -> int:
        return self._n_cells

    @property
    def n_stats(self) -> int:
        return self._n_cells

    @property
    def prior(self) -> DirichletPrior:
        return self._prior

    def validate(self, db: Database) -> None:
        attr = db.schema[self._index]
        if not isinstance(attr, DiscreteAttribute):
            raise TypeError(
                f"attribute {self._index} ({attr.name!r}) is not discrete"
            )
        if attr.arity != self._attr.arity:
            raise ValueError(
                f"attribute {attr.name!r} arity {attr.arity} != "
                f"term arity {self._attr.arity}"
            )
        if not self._model_missing and db.missing[self._index].any():
            raise ValueError(
                f"attribute {attr.name!r} has missing values but the term "
                "was built with model_missing=False"
            )

    # -- statistics and parameters ---------------------------------------

    def accumulate_stats(self, db: Database, wts: np.ndarray) -> np.ndarray:
        """Weighted symbol counts per class: ``c[j, l] = sum_i w_ij [x_i = l]``.

        Vectorized as a one-pass scatter-add keyed by symbol code; the
        missing cell (if modelled) is just one more code.
        """
        codes = db.columns[self._index]
        miss = db.missing[self._index]
        if self._model_missing:
            codes = np.where(miss, self._attr.arity, codes)
            mask = slice(None)
        else:
            mask = ~miss
        n_classes = wts.shape[1]
        stats = np.zeros((n_classes, self._n_cells), dtype=np.float64)
        # add.at scatters rows of wts into the per-code rows of stats.T.
        sel_codes = codes[mask]
        sel_wts = wts[mask]
        np.add.at(stats.T, sel_codes, sel_wts)
        return stats

    def map_params(self, stats: np.ndarray) -> MultinomialParams:
        p = self._prior.map(stats)
        return MultinomialParams(n_classes=stats.shape[0], log_p=safe_log(p))

    def log_likelihood(self, db: Database, params: MultinomialParams) -> np.ndarray:
        codes = db.columns[self._index]
        miss = db.missing[self._index]
        if self._model_missing:
            codes = np.where(miss, self._attr.arity, codes)
            return params.log_p.T[codes]
        out = params.log_p.T[np.where(miss, 0, codes)]
        if miss.any():
            out = out.copy()
            out[miss] = 0.0  # absent cell contributes evidence 1
        return out

    # -- GEMM protocol ---------------------------------------------------

    def design_columns(self, db: Database, out: np.ndarray) -> None:
        """One-hot symbol indicators, ``(n_items, n_cells)``.

        Rows with unmodelled missing values are all-zero (they
        contribute neither statistics nor likelihood).
        """
        codes = db.columns[self._index]
        miss = db.missing[self._index]
        out[...] = 0.0
        if self._model_missing:
            codes = np.where(miss, self._attr.arity, codes)
            out[np.arange(db.n_items), codes] = 1.0
        else:
            rows = np.flatnonzero(~miss)
            out[rows, codes[rows]] = 1.0

    def loglik_coefficients(self, params: MultinomialParams) -> np.ndarray:
        # One-hot design @ log_p.T is exactly the per-item gather.
        return np.ascontiguousarray(params.log_p.T)

    def log_prior_density(self, params: MultinomialParams) -> float:
        return self._prior.log_pdf(params.p)

    def log_marginal(self, stats: np.ndarray) -> float:
        return self._prior.log_marginal(stats)

    def n_free_params(self) -> int:
        return self._n_cells - 1

    def influence(
        self, params: MultinomialParams, global_params: MultinomialParams
    ) -> np.ndarray:
        """KL(class multinomial || global multinomial) per class."""
        p = params.p
        diff = params.log_p - global_params.log_p
        return np.sum(p * diff, axis=1)

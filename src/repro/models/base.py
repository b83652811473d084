"""The TermModel contract.

A *term* is one factor of a class's probability model — a single
attribute's distribution, or one correlated block of attributes.  The
contract is designed around the paper's parallelization:

1. **Additive statistics.** ``accumulate_stats(db, wts)`` returns a
   dense ``(n_classes, n_stats)`` float array of weighted sufficient
   statistics that is *additive over item partitions*.  P-AutoClass's
   ``update_parameters`` packs these per-term blocks into one buffer,
   Allreduce-sums them, and every rank finalizes identical parameters.
2. **Pure finalization.** ``map_params(stats)`` is a deterministic pure
   function of the *global* statistics, so replicated execution on every
   rank yields bit-identical parameters with zero extra communication.
3. **Log-space likelihoods.** ``log_likelihood(db, params)`` returns the
   per-item, per-class log density consumed by ``update_wts``.
4. **Linear features.** ``design_columns(db, out)`` and
   ``loglik_coefficients(params)`` express both of the above as GEMMs
   against one per-item feature matrix; the engine's hot path uses only
   this pair, and the reference pair of items 1 and 3 is its oracle.

Terms also expose the two Bayesian quantities the search needs:
``log_prior_density`` (the MAP objective's prior part) and
``log_marginal`` (the conjugate evidence of the weighted statistics,
used by the Cheeseman–Stutz approximation in
:mod:`repro.engine.approx`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.data.database import Database


@dataclass(frozen=True)
class TermParams:
    """Base class for a term's per-class MAP parameters.

    Concrete terms subclass this with their own arrays (all stacked over
    the class axis).  Instances are immutable; a new one is produced
    each ``update_parameters``.
    """

    n_classes: int


class TermModel(ABC):
    """Probability model of one term across all classes.

    Subclasses are immutable once constructed (they capture the
    attribute indices and the prior anchored at the global data
    summary); all per-class state lives in :class:`TermParams`.
    """

    #: AutoClass C model-family name (e.g. ``"single_normal_cn"``).
    spec_name: str = "abstract"

    @property
    @abstractmethod
    def attribute_indices(self) -> tuple[int, ...]:
        """Columns of the database this term consumes."""

    @property
    @abstractmethod
    def n_stats(self) -> int:
        """Length of one class's sufficient-statistic vector."""

    @abstractmethod
    def validate(self, db: Database) -> None:
        """Raise if ``db`` violates the term's assumptions (e.g. a
        ``*_cn`` term given missing values)."""

    @abstractmethod
    def accumulate_stats(self, db: Database, wts: np.ndarray) -> np.ndarray:
        """Weighted sufficient statistics.

        Parameters
        ----------
        db:
            The (local) database block.
        wts:
            ``(n_items, n_classes)`` membership weights from the E-step.

        Returns
        -------
        ``(n_classes, n_stats)`` float64 array, additive over item
        partitions.
        """

    @abstractmethod
    def map_params(self, stats: np.ndarray) -> TermParams:
        """MAP parameters from *global* statistics (pure, deterministic)."""

    @abstractmethod
    def log_likelihood(self, db: Database, params: TermParams) -> np.ndarray:
        """``(n_items, n_classes)`` log density of each item under each
        class's term distribution."""

    @abstractmethod
    def log_prior_density(self, params: TermParams) -> float:
        """Log prior density at the MAP parameters (summed over classes)."""

    @abstractmethod
    def log_marginal(self, stats: np.ndarray) -> float:
        """Conjugate evidence of the weighted statistics (summed over
        classes) — the term's contribution to the Cheeseman–Stutz
        approximation."""

    def map_params_and_log_marginal(
        self, stats: np.ndarray
    ) -> tuple[TermParams, float]:
        """``(map_params(stats), log_marginal(stats))`` in one call.

        An EM cycle needs both from the same global statistics; terms
        whose two results share a conjugate posterior override this to
        evaluate it once.
        """
        return self.map_params(stats), self.log_marginal(stats)

    @abstractmethod
    def n_free_params(self) -> int:
        """Free continuous parameters per class (model-complexity report)."""

    @abstractmethod
    def influence(self, params: TermParams, global_params: TermParams) -> np.ndarray:
        """Per-class influence value of this term.

        AutoClass reports, for each class and attribute, how strongly
        the class's term distribution diverges from the global
        single-class distribution (a KL divergence).  Shape
        ``(n_classes,)``.
        """

    # ------------------------------------------------------------------
    # GEMM protocol (required)
    #
    # The :mod:`repro.kernels` layer exploits the fact that every term's
    # log density *and* sufficient statistics are linear in a shared set
    # of per-item features ("design columns"), so both local halves of
    # the EM cycle are one GEMM each against the cached design matrix.
    # ``log_likelihood`` / ``accumulate_stats`` above are the reference
    # pair these two must reproduce (the differential tests and
    # ``repro.verify`` check that they do).

    @abstractmethod
    def design_columns(self, db: Database, out: np.ndarray) -> None:
        """Write the ``(n_items, n_stats)`` feature rows for the fused
        GEMMs into ``out``.

        ``out`` is this term's column slice of the plan's one C-order
        design (a strided view, uninitialized): the term must write
        every cell of it.  With ``cols`` the filled ``out``, it must
        satisfy ``wts.T @ cols == accumulate_stats(db, wts)`` (same
        column order).
        """

    @abstractmethod
    def loglik_coefficients(self, params: TermParams) -> np.ndarray:
        """``(n_stats, n_classes)`` coefficients with
        ``cols @ coef == log_likelihood(db, params)`` for the
        :meth:`design_columns` rows ``cols``."""

    # ------------------------------------------------------------------
    # Shared helpers

    def global_stats(self, db: Database) -> np.ndarray:
        """Statistics of the whole block under a single class.

        Equivalent to ``accumulate_stats`` with unit weights on one
        class; used to build the global (J=1) reference parameters for
        influence reports.
        """
        wts = np.ones((db.n_items, 1), dtype=np.float64)
        return self.accumulate_stats(db, wts)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        cols = ",".join(map(str, self.attribute_indices))
        return f"<{type(self).__name__} {self.spec_name} attrs=[{cols}]>"

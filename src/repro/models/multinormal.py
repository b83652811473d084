"""``multi_normal_cn`` — a correlated block of real attributes.

AutoClass's model-level search includes hypotheses "whether attributes
are correlated"; this term is the correlated alternative to a set of
independent :class:`~repro.models.normal.NormalTerm` factors: one
full-covariance multivariate Gaussian per class over a block of real
attributes, under a Normal-Inverse-Wishart prior anchored at the global
data covariance.

Complete data only (the ``_cn`` suffix), enforced by :meth:`validate` —
matching AutoClass C, whose multi-normal model likewise excludes
missing values.  Scoring never calls ``validate``: an item missing any
of the block's cells contributes log-likelihood 0 (evidence 1), the rule
``single_multinomial`` applies to an unmodelled missing cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.attributes import RealAttribute
from repro.data.database import Database
from repro.models.base import TermModel, TermParams
from repro.models.priors import LOG_2PI, NormalWishartPrior
from repro.models.summary import DataSummary


@dataclass(frozen=True)
class MultiNormalParams(TermParams):
    """Per-class (mu, Sigma) with cached Cholesky factors."""

    mu: np.ndarray  # (n_classes, d)
    sigma: np.ndarray  # (n_classes, d, d)
    chol: np.ndarray  # (n_classes, d, d) lower Cholesky of sigma
    log_det: np.ndarray  # (n_classes,) log |sigma|


class MultiNormalTerm(TermModel):
    """Correlated real block (AutoClass ``multi_normal_cn``)."""

    spec_name = "multi_normal_cn"

    def __init__(
        self,
        attr_indices: tuple[int, ...],
        attrs: tuple[RealAttribute, ...],
        summary: DataSummary,
    ) -> None:
        if len(attr_indices) < 2:
            raise ValueError(
                "multi_normal_cn needs at least 2 attributes; use "
                "single_normal_cn for a single one"
            )
        if len(attr_indices) != len(attrs):
            raise ValueError("attr_indices and attrs must align")
        self._indices = tuple(int(i) for i in attr_indices)
        self._attrs = attrs
        d = len(attrs)
        means = np.array([summary.attribute(i).mean for i in self._indices])
        variances = np.array([summary.attribute(i).var for i in self._indices])
        errors = np.array([a.error for a in attrs])
        # The prior covariance anchor is diagonal at the global per-
        # attribute variances: correlations are something a class has to
        # earn from its data, not inherit from the prior.
        self._prior = NormalWishartPrior.anchored(
            means, np.diag(variances), errors
        )
        self._d = d

    @property
    def attribute_indices(self) -> tuple[int, ...]:
        return self._indices

    @property
    def dim(self) -> int:
        return self._d

    @property
    def n_stats(self) -> int:
        # [w, wx (d), upper triangle of wxx (d(d+1)/2)]
        return 1 + self._d + self._d * (self._d + 1) // 2

    @property
    def prior(self) -> NormalWishartPrior:
        return self._prior

    def validate(self, db: Database) -> None:
        for idx in self._indices:
            attr = db.schema[idx]
            if not isinstance(attr, RealAttribute):
                raise TypeError(f"attribute {idx} ({attr.name!r}) is not real")
            if db.missing[idx].any():
                raise ValueError(
                    f"attribute {attr.name!r} has missing values; "
                    "multi_normal_cn requires complete data"
                )

    # -- statistics -------------------------------------------------------

    def _matrix(self, db: Database) -> np.ndarray:
        return np.column_stack([db.columns[i] for i in self._indices])

    def _missing_rows(self, db: Database) -> np.ndarray:
        """Items missing any of the block's cells (only ever at scoring
        time: :meth:`validate` refuses them for a fit)."""
        return np.logical_or.reduce([db.missing[i] for i in self._indices])

    def accumulate_stats(self, db: Database, wts: np.ndarray) -> np.ndarray:
        """Per class: [sum w, sum w x (d), triu(sum w x x^T) (d(d+1)/2)]."""
        x = self._matrix(db)  # (n, d)
        n_classes = wts.shape[1]
        w = wts.sum(axis=0)  # (J,)
        wx = wts.T @ x  # (J, d)
        iu = np.triu_indices(self._d)
        # Pairwise products for the upper triangle, one matmul per class
        # batch: (n, n_pairs) then weighted-summed.
        pair = x[:, iu[0]] * x[:, iu[1]]  # (n, d(d+1)/2)
        wxx = wts.T @ pair  # (J, n_pairs)
        out = np.empty((n_classes, self.n_stats), dtype=np.float64)
        out[:, 0] = w
        out[:, 1 : 1 + self._d] = wx
        out[:, 1 + self._d :] = wxx
        return out

    def _unpack(self, stats_row: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        d = self._d
        w = float(stats_row[0])
        wx = stats_row[1 : 1 + d]
        tri = stats_row[1 + d :]
        wxx = np.zeros((d, d))
        iu = np.triu_indices(d)
        wxx[iu] = tri
        wxx = wxx + np.triu(wxx, 1).T
        return w, wx, wxx

    def map_params(self, stats: np.ndarray) -> MultiNormalParams:
        n_classes = stats.shape[0]
        d = self._d
        mu = np.empty((n_classes, d))
        sigma = np.empty((n_classes, d, d))
        chol = np.empty((n_classes, d, d))
        log_det = np.empty(n_classes)
        for j in range(n_classes):
            w, wx, wxx = self._unpack(stats[j])
            mu[j], sigma[j] = self._prior.map(w, wx, wxx)
            chol[j] = np.linalg.cholesky(sigma[j])
            log_det[j] = 2.0 * np.sum(np.log(np.diag(chol[j])))
        return MultiNormalParams(
            n_classes=n_classes, mu=mu, sigma=sigma, chol=chol, log_det=log_det
        )

    def log_likelihood(self, db: Database, params: MultiNormalParams) -> np.ndarray:
        from scipy.linalg import solve_triangular

        x = self._matrix(db)  # (n, d)
        miss = self._missing_rows(db)
        if miss.any():
            x[miss] = 0.0  # solve_triangular refuses NaN
        n = x.shape[0]
        out = np.empty((n, params.n_classes))
        const = -0.5 * self._d * LOG_2PI
        for j in range(params.n_classes):
            dev = x - params.mu[j]  # (n, d)
            # Mahalanobis via the cached Cholesky: solve L z = dev^T.
            z = solve_triangular(params.chol[j], dev.T, lower=True)  # (d, n)
            maha = np.einsum("dn,dn->n", z, z)
            out[:, j] = const - 0.5 * params.log_det[j] - 0.5 * maha
        if miss.any():
            out[miss] = 0.0  # an incomplete item contributes evidence 1
        return out

    # -- GEMM protocol ---------------------------------------------------

    def design_columns(self, db: Database, out: np.ndarray) -> None:
        x = self._matrix(db)
        d = self._d
        iu = np.triu_indices(d)
        out[:, 0] = 1.0
        out[:, 1 : 1 + d] = x
        np.multiply(x[:, iu[0]], x[:, iu[1]], out=out[:, 1 + d :])
        miss = self._missing_rows(db)
        if miss.any():
            out[miss] = 0.0

    def loglik_coefficients(self, params: MultiNormalParams) -> np.ndarray:
        """Expanded Gaussian quadratic against ``[1, x, triu(x xᵀ)]``.

        ``log N(x) = const + ηᵀx - ½ xᵀP x`` with ``P = Σ⁻¹`` and
        ``η = P μ``; the pairwise design features carry each off-diagonal
        product once, so its coefficient is ``-P_kl`` (``-½ P_kk`` on the
        diagonal).
        """
        from scipy.linalg import cho_solve

        d = self._d
        iu = np.triu_indices(d)
        diag = iu[0] == iu[1]
        eye = np.eye(d)
        coef = np.empty((self.n_stats, params.n_classes), dtype=np.float64)
        for j in range(params.n_classes):
            prec = cho_solve((params.chol[j], True), eye)
            eta = prec @ params.mu[j]
            coef[0, j] = -0.5 * (
                d * LOG_2PI + params.log_det[j] + params.mu[j] @ eta
            )
            coef[1 : 1 + d, j] = eta
            coef[1 + d :, j] = np.where(diag, -0.5 * prec[iu], -prec[iu])
        return coef

    def log_prior_density(self, params: MultiNormalParams) -> float:
        """Log NIW density at the MAP (mu, Sigma), summed over classes."""
        from scipy.linalg import cho_solve
        from scipy.special import multigammaln

        p = self._prior
        d = self._d
        sign0, logdet_psi0 = np.linalg.slogdet(p.psi0)
        if sign0 <= 0:
            return -np.inf
        total = 0.0
        for j in range(params.n_classes):
            log_det = float(params.log_det[j])
            dev = params.mu[j] - p.mu0
            inv_dev = cho_solve((params.chol[j], True), dev)
            inv_psi = cho_solve((params.chol[j], True), p.psi0)
            quad = float(dev @ inv_dev)
            trace = float(np.trace(inv_psi))
            total += (
                # N(mu | mu0, Sigma/kappa0)
                -0.5 * d * LOG_2PI
                + 0.5 * d * np.log(p.kappa0)
                - 0.5 * log_det
                - 0.5 * p.kappa0 * quad
                # IW(Sigma | Psi0, nu0)
                + 0.5 * p.nu0 * logdet_psi0
                - 0.5 * p.nu0 * d * np.log(2.0)
                - multigammaln(p.nu0 / 2.0, d)
                - 0.5 * (p.nu0 + d + 1.0) * log_det
                - 0.5 * trace
            )
        return float(total)

    def log_marginal(self, stats: np.ndarray) -> float:
        total = 0.0
        for j in range(stats.shape[0]):
            w, wx, wxx = self._unpack(stats[j])
            total += self._prior.log_marginal(w, wx, wxx)
        return total

    def n_free_params(self) -> int:
        d = self._d
        return d + d * (d + 1) // 2

    def influence(
        self, params: MultiNormalParams, global_params: MultiNormalParams
    ) -> np.ndarray:
        """KL(class Gaussian || global Gaussian) per class (closed form)."""
        from scipy.linalg import cho_solve

        d = self._d
        chol_g = global_params.chol[0]
        logdet_g = float(global_params.log_det[0])
        mu_g = global_params.mu[0]
        out = np.empty(params.n_classes)
        for j in range(params.n_classes):
            trace = float(np.trace(cho_solve((chol_g, True), params.sigma[j])))
            dev = mu_g - params.mu[j]
            quad = float(dev @ cho_solve((chol_g, True), dev))
            out[j] = 0.5 * (
                trace + quad - d + logdet_g - float(params.log_det[j])
            )
        return out

"""Conjugate priors: MAP estimates, densities, and marginal likelihoods.

AutoClass is MAP-Bayesian: parameters are point-estimated at the
posterior mode under conjugate priors, and classifications are ranked by
an approximation of the marginal likelihood.  Everything needed for both
lives here, in closed form:

* ``map_*`` — posterior-mode estimate given weighted sufficient stats;
* ``log_pdf_*`` — prior density at a parameter value (enters the MAP
  objective whose monotone growth under EM is a tested invariant);
* ``log_marginal_*`` — the prior-predictive (evidence) of the weighted
  statistics, used by the Cheeseman–Stutz approximation.

Weighted (fractional) counts are used throughout — the E-step hands
each class a fractional share of every item, and all the conjugate
formulas extend to non-integer counts via the gamma function.

Every cycle evaluates these on ``J``-sized arrays, where numpy's
per-call overhead, not arithmetic, is the cost: each prior computes its
parameter-free scalars (``gammaln(alpha)``, ``log b0``, ...) once, as
``cached_property`` values used in the very expression positions they
replace, so every result is bitwise what the inline form gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln, multigammaln

from repro.util.validation import check_positive

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class DirichletPrior:
    """Symmetric Dirichlet over an ``arity``-simplex.

    AutoClass's ``single_multinomial`` uses hyperparameter
    ``alpha = 1 + 1/arity``, which gives the classic AutoClass MAP
    estimate ``(count + 1/arity) / (total + 1)``.
    """

    arity: int
    alpha: float

    @staticmethod
    def autoclass(arity: int) -> "DirichletPrior":
        """The AutoClass default: ``alpha = 1 + 1/arity``."""
        return DirichletPrior(arity=arity, alpha=1.0 + 1.0 / arity)

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        if self.alpha <= 1.0:
            # alpha <= 1 puts the mode on the simplex boundary; MAP then
            # degenerates (zero probabilities), which AutoClass avoids.
            raise ValueError(f"alpha must be > 1 for an interior MAP, got {self.alpha}")

    def map(self, counts: np.ndarray) -> np.ndarray:
        """Posterior mode: ``(c_l + alpha - 1) / (sum_c + arity*(alpha-1))``.

        ``counts`` may be any non-negative array whose **last** axis has
        length ``arity``; the estimate is computed along that axis.
        """
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape[-1] != self.arity:
            raise ValueError(
                f"last axis {counts.shape[-1]} != arity {self.arity}"
            )
        a = self.alpha - 1.0
        total = counts.sum(axis=-1, keepdims=True)
        return (counts + a) / (total + self.arity * a)

    @cached_property
    def _gammaln_alpha(self) -> float:
        return gammaln(self.alpha)

    @cached_property
    def _gammaln_total_alpha(self) -> float:
        return gammaln(self.arity * self.alpha)

    def log_pdf(self, p: np.ndarray) -> float:
        """Log Dirichlet density at probability vector(s) ``p``.

        Accepts stacked vectors; returns the summed log density.
        """
        p = np.asarray(p, dtype=np.float64)
        if (p <= 0).any():
            return -np.inf
        a = self.alpha
        log_b = self.arity * self._gammaln_alpha - self._gammaln_total_alpha
        n_vectors = int(np.prod(p.shape[:-1])) if p.ndim > 1 else 1
        return float((a - 1.0) * np.log(p).sum() - n_vectors * log_b)

    def log_marginal(self, counts: np.ndarray) -> float:
        """Dirichlet-multinomial evidence of (possibly fractional) counts.

        ``log [ B(alpha + c) / B(alpha) ]`` summed over stacked count
        vectors.  The multinomial coefficient is omitted, as in
        AutoClass: it is constant across classifications of the same
        data and cancels in comparisons.
        """
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape[-1] != self.arity:
            raise ValueError(
                f"last axis {counts.shape[-1]} != arity {self.arity}"
            )
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        a = self.alpha
        total = counts.sum(axis=-1)
        per_vec = (
            gammaln(counts + a).sum(axis=-1)
            - gammaln(total + self.arity * a)
            + self._gammaln_total_alpha
            - self.arity * self._gammaln_alpha
        )
        return float(per_vec.sum())


@dataclass(frozen=True)
class BetaPrior:
    """Beta prior for a presence/absence probability (missing model)."""

    a: float = 1.5
    b: float = 1.5

    def __post_init__(self) -> None:
        if self.a <= 1.0 or self.b <= 1.0:
            raise ValueError("Beta MAP needs a > 1 and b > 1")

    def map(self, successes: np.ndarray, failures: np.ndarray) -> np.ndarray:
        """Posterior mode of the success probability."""
        s = np.asarray(successes, dtype=np.float64)
        f = np.asarray(failures, dtype=np.float64)
        return (s + self.a - 1.0) / (s + f + self.a + self.b - 2.0)

    @cached_property
    def _gammaln_a(self) -> float:
        return gammaln(self.a)

    @cached_property
    def _gammaln_b(self) -> float:
        return gammaln(self.b)

    @cached_property
    def _gammaln_ab(self) -> float:
        return gammaln(self.a + self.b)

    def log_pdf(self, p: np.ndarray) -> float:
        p = np.asarray(p, dtype=np.float64)
        if ((p <= 0) | (p >= 1)).any():
            return -np.inf
        log_b = self._gammaln_a + self._gammaln_b - self._gammaln_ab
        return float(
            ((self.a - 1) * np.log(p) + (self.b - 1) * np.log1p(-p)).sum()
            - p.size * log_b
        )

    def log_marginal(self, successes: np.ndarray, failures: np.ndarray) -> float:
        """Beta-Bernoulli evidence of fractional success/failure counts."""
        s = np.asarray(successes, dtype=np.float64)
        f = np.asarray(failures, dtype=np.float64)
        if (s < 0).any() or (f < 0).any():
            raise ValueError("counts must be non-negative")
        per = (
            gammaln(s + self.a)
            + gammaln(f + self.b)
            - gammaln(s + f + self.a + self.b)
            + self._gammaln_ab
            - self._gammaln_a
            - self._gammaln_b
        )
        return float(per.sum())


@dataclass(frozen=True)
class NormalGammaPrior:
    """Normal-Inverse-Gamma prior on a Gaussian's (mean, variance).

    Parameterization: ``mu | sigma^2 ~ N(mu0, sigma^2/kappa0)``,
    ``sigma^2 ~ InvGamma(a0, b0)``.  AutoClass anchors its priors at the
    full-data statistics; we reproduce that by constructing the prior
    from the global mean/variance of the attribute
    (:meth:`anchored`) with unit pseudo-counts, and flooring sigma at
    the attribute's declared measurement error.
    """

    mu0: float
    kappa0: float
    a0: float
    b0: float
    sigma_floor: float

    @staticmethod
    def anchored(
        mean: float, var: float, error: float, *, pseudo_count: float = 1.0
    ) -> "NormalGammaPrior":
        """Prior centered on the global data statistics.

        One pseudo-observation for the mean (``kappa0``) and one for the
        variance (``a0 = 1 + pseudo/2`` keeps the InvGamma proper with a
        finite mode ``b0/(a0+1) ~= var``).
        """
        check_positive("var", var)
        check_positive("error", error)
        a0 = 1.0 + pseudo_count / 2.0
        b0 = var * (a0 + 1.0)
        return NormalGammaPrior(
            mu0=mean, kappa0=pseudo_count, a0=a0, b0=b0, sigma_floor=error
        )

    @cached_property
    def _kappa0_mu0(self) -> float:
        return self.kappa0 * self.mu0

    @cached_property
    def _log_kappa0(self) -> float:
        return np.log(self.kappa0)

    @cached_property
    def _a0_log_b0(self) -> float:
        return self.a0 * np.log(self.b0)

    @cached_property
    def _gammaln_a0(self) -> float:
        return gammaln(self.a0)

    @cached_property
    def _log_pdf_norm(self) -> float:
        return 0.5 * (self._log_kappa0 - LOG_2PI) + self._a0_log_b0 - self._gammaln_a0

    def posterior(
        self, w: np.ndarray, wx: np.ndarray, wxx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Posterior hyperparameters (mu_n, kappa_n, a_n, b_n).

        ``w, wx, wxx`` are the weighted sufficient statistics
        ``sum w_i``, ``sum w_i x_i``, ``sum w_i x_i^2`` per class
        (vectorized over classes).
        """
        w = np.asarray(w, dtype=np.float64)
        wx = np.asarray(wx, dtype=np.float64)
        wxx = np.asarray(wxx, dtype=np.float64)
        kappa_n = self.kappa0 + w
        mu_n = (self._kappa0_mu0 + wx) / kappa_n
        a_n = self.a0 + w / 2.0
        # Scatter around the weighted mean, guarded against tiny negative
        # values from cancellation.  Weights are non-negative, so the
        # floored divisor is positive and the division cannot trap.
        xbar = np.where(w > 0, wx / np.maximum(w, 1e-300), self.mu0)
        scatter = np.maximum(wxx - w * np.square(xbar), 0.0)
        shrink = self.kappa0 * w * np.square(xbar - self.mu0) / (2.0 * kappa_n)
        b_n = self.b0 + scatter / 2.0 + shrink
        return mu_n, kappa_n, a_n, b_n

    def mode(
        self, posterior: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Joint posterior mode (mu, sigma) with the error floor applied."""
        mu_n, _kappa_n, a_n, b_n = posterior
        # Mode of the joint NIG density over (mu, sigma^2).
        var = b_n / (a_n + 1.5)
        sigma = np.sqrt(var)
        return mu_n, np.maximum(sigma, self.sigma_floor)

    def evidence(
        self,
        w: np.ndarray,
        posterior: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> float:
        """Log evidence of the data behind ``posterior``, summed over classes."""
        _mu_n, kappa_n, a_n, b_n = posterior
        per = (
            -0.5 * np.asarray(w, dtype=np.float64) * LOG_2PI
            + 0.5 * (self._log_kappa0 - np.log(kappa_n))
            + self._a0_log_b0
            - a_n * np.log(b_n)
            + gammaln(a_n)
            - self._gammaln_a0
        )
        return float(per.sum())

    def map(
        self, w: np.ndarray, wx: np.ndarray, wxx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Joint posterior mode (mu, sigma) with the error floor applied."""
        return self.mode(self.posterior(w, wx, wxx))

    def log_pdf(self, mu: np.ndarray, sigma: np.ndarray) -> float:
        """Log NIG density at (mu, sigma^2), summed over classes."""
        mu = np.asarray(mu, dtype=np.float64)
        var = np.square(np.asarray(sigma, dtype=np.float64))
        if (var <= 0).any():
            return -np.inf
        per = (
            self._log_pdf_norm
            - (self.a0 + 1.5) * np.log(var)
            - (self.b0 + 0.5 * self.kappa0 * np.square(mu - self.mu0)) / var
        )
        return float(per.sum())

    def log_marginal(self, w: np.ndarray, wx: np.ndarray, wxx: np.ndarray) -> float:
        """Evidence of weighted Gaussian data, summed over classes."""
        return self.evidence(w, self.posterior(w, wx, wxx))


@dataclass(frozen=True)
class NormalWishartPrior:
    """Normal-Inverse-Wishart prior on a d-variate Gaussian.

    ``mu | Sigma ~ N(mu0, Sigma/kappa0)``, ``Sigma ~ IW(Psi0, nu0)``.
    Anchored at the global data mean/covariance like the univariate case.
    """

    mu0: np.ndarray
    kappa0: float
    nu0: float
    psi0: np.ndarray
    var_floor: np.ndarray

    @staticmethod
    def anchored(
        mean: np.ndarray,
        cov: np.ndarray,
        errors: np.ndarray,
        *,
        pseudo_count: float = 1.0,
    ) -> "NormalWishartPrior":
        mean = np.asarray(mean, dtype=np.float64)
        cov = np.asarray(cov, dtype=np.float64)
        errors = np.asarray(errors, dtype=np.float64)
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError(f"cov shape {cov.shape} != ({d}, {d})")
        nu0 = d + 1.0 + pseudo_count
        # Scale Psi0 so the prior mode of Sigma is the global covariance.
        psi0 = cov * (nu0 + d + 1.0)
        return NormalWishartPrior(
            mu0=mean,
            kappa0=pseudo_count,
            nu0=nu0,
            psi0=psi0,
            var_floor=errors**2,
        )

    @property
    def dim(self) -> int:
        return int(self.mu0.shape[0])

    def posterior(
        self, w: float, wx: np.ndarray, wxx: np.ndarray
    ) -> tuple[np.ndarray, float, float, np.ndarray]:
        """Posterior (mu_n, kappa_n, nu_n, Psi_n) for one class.

        ``wx`` is the weighted sum vector, ``wxx`` the weighted raw
        second-moment matrix ``sum w_i x_i x_i^T``.
        """
        wx = np.asarray(wx, dtype=np.float64)
        wxx = np.asarray(wxx, dtype=np.float64)
        kappa_n = self.kappa0 + w
        mu_n = (self.kappa0 * self.mu0 + wx) / kappa_n
        nu_n = self.nu0 + w
        xbar = wx / w if w > 0 else self.mu0.copy()
        scatter = wxx - w * np.outer(xbar, xbar)
        dev = (xbar - self.mu0).reshape(-1, 1)
        psi_n = self.psi0 + scatter + (self.kappa0 * w / kappa_n) * (dev @ dev.T)
        # Symmetrize against accumulation noise.
        psi_n = 0.5 * (psi_n + psi_n.T)
        return mu_n, kappa_n, nu_n, psi_n

    def map(self, w: float, wx: np.ndarray, wxx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Joint posterior mode (mu, Sigma) with diagonal variance floor."""
        mu_n, _, nu_n, psi_n = self.posterior(w, wx, wxx)
        d = self.dim
        sigma = psi_n / (nu_n + d + 2.0)
        # Raise diagonal entries to the floor while keeping symmetry.
        deficit = np.maximum(self.var_floor - np.diag(sigma), 0.0)
        sigma = sigma + np.diag(deficit)
        return mu_n, sigma

    def log_marginal(self, w: float, wx: np.ndarray, wxx: np.ndarray) -> float:
        """Evidence of weighted d-variate Gaussian data for one class."""
        d = self.dim
        mu_n, kappa_n, nu_n, psi_n = self.posterior(w, wx, wxx)
        del mu_n
        sign0, logdet0 = np.linalg.slogdet(self.psi0)
        sign_n, logdet_n = np.linalg.slogdet(psi_n)
        if sign0 <= 0 or sign_n <= 0:
            raise ValueError("Psi matrices must be positive definite")
        return float(
            -0.5 * w * d * LOG_2PI
            + 0.5 * d * (np.log(self.kappa0) - np.log(kappa_n))
            + 0.5 * self.nu0 * logdet0
            - 0.5 * nu_n * logdet_n
            + multigammaln(nu_n / 2.0, d)
            - multigammaln(self.nu0 / 2.0, d)
            + 0.5 * w * d * np.log(2.0)
        )

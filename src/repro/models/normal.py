"""Real-attribute terms: ``single_normal_cn`` and ``single_normal_cm``.

``single_normal_cn`` ("continuous, no missing") models a real attribute
as a class-conditional Gaussian; ``single_normal_cm`` ("continuous,
missing") augments it with a per-class Bernoulli presence probability,
so a class can be characterized by *whether* the attribute tends to be
recorded as well as by its value — AutoClass's treatment of missing
reals.

``single_normal_cn`` refuses missing values in a fit (:meth:`NormalTerm.
validate`); when a fitted model scores an item whose cell is missing,
the term contributes log-likelihood 0 (evidence 1), the rule
``single_multinomial`` applies to an unmodelled missing cell.

Both use the Normal-Inverse-Gamma prior of
:class:`repro.models.priors.NormalGammaPrior`, anchored at the global
data statistics, with the class sigma floored at the attribute's
declared measurement ``error`` (AutoClass's rule that a class cannot
out-resolve the instrument).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.attributes import RealAttribute
from repro.data.database import Database
from repro.models.base import TermModel, TermParams
from repro.models.priors import LOG_2PI, BetaPrior, NormalGammaPrior
from repro.models.summary import DataSummary
from repro.util.logspace import LOG_FLOOR, xlogy


@dataclass(frozen=True)
class NormalParams(TermParams):
    """Per-class (mu, sigma) of a Gaussian term."""

    mu: np.ndarray  # (n_classes,)
    sigma: np.ndarray  # (n_classes,)


@dataclass(frozen=True)
class NormalMissingParams(NormalParams):
    """Gaussian plus per-class probability that the value is present."""

    p_present: np.ndarray  # (n_classes,)


def _gauss_log_pdf(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``(n_items, n_classes)`` Gaussian log density, broadcast over classes."""
    z = (x[:, None] - mu[None, :]) / sigma[None, :]
    return -0.5 * (z * z) - np.log(sigma)[None, :] - 0.5 * LOG_2PI


def _log_presence(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(log p, log(1-p))`` with both logs floored at :data:`LOG_FLOOR`.

    MAP estimates under the Beta prior keep ``p`` strictly inside (0, 1),
    but the term API accepts arbitrary parameter objects (tests, custom
    inits, serialized params) — and an exact 0/1 would put a ``-inf``
    coefficient into the fused GEMM where it multiplies a zero indicator
    column into NaN.  The floor keeps the density a clamp, not a poison.
    """
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_p = np.maximum(np.log(p), LOG_FLOOR)
        log_q = np.maximum(np.log1p(-p), LOG_FLOOR)
    return log_p, log_q


def _bernoulli_kl(q: np.ndarray, q_g: float) -> np.ndarray:
    """``KL(Bern(q) || Bern(q_g))`` elementwise, NaN-free at the corners.

    Uses the ``0·log(·) = 0`` convention via :func:`repro.util.logspace.
    xlogy`, so ``q`` ∈ {0, 1} (an all-present or all-absent class) and
    degenerate globals ``q_g`` ∈ {0, 1} yield large-but-finite
    divergences instead of ``-inf * 0 = NaN``.
    """
    q = np.asarray(q, dtype=np.float64)
    one_minus_q = 1.0 - q
    kl = (
        xlogy(q, q) - xlogy(q, np.full_like(q, q_g))
        + xlogy(one_minus_q, one_minus_q)
        - xlogy(one_minus_q, np.full_like(q, 1.0 - q_g))
    )
    return kl


def _gauss_coefficients(mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``(3, J)`` coefficients of the expanded Gaussian log density.

    ``log N(x | mu, sigma) = c + b·x + a·x²`` against the design columns
    ``[1, x, x²]``.
    """
    inv_var = 1.0 / np.square(sigma)
    coef = np.empty((3, mu.shape[0]), dtype=np.float64)
    coef[0] = (
        -0.5 * np.square(mu) * inv_var - np.log(sigma) - 0.5 * LOG_2PI
    )
    coef[1] = mu * inv_var
    coef[2] = -0.5 * inv_var
    return coef


class NormalTerm(TermModel):
    """Real attribute with complete data (AutoClass ``single_normal_cn``)."""

    spec_name = "single_normal_cn"

    #: Statistic layout per class: [sum w, sum w*x, sum w*x^2].
    _N_STATS = 3

    def __init__(
        self,
        attr_index: int,
        attr: RealAttribute,
        summary: DataSummary,
    ) -> None:
        self._index = int(attr_index)
        self._attr = attr
        info = summary.attribute(attr_index)
        self._prior = NormalGammaPrior.anchored(info.mean, info.var, attr.error)

    @property
    def attribute_indices(self) -> tuple[int, ...]:
        return (self._index,)

    @property
    def n_stats(self) -> int:
        return self._N_STATS

    @property
    def prior(self) -> NormalGammaPrior:
        return self._prior

    def validate(self, db: Database) -> None:
        attr = db.schema[self._index]
        if not isinstance(attr, RealAttribute):
            raise TypeError(f"attribute {self._index} ({attr.name!r}) is not real")
        if db.missing[self._index].any():
            raise ValueError(
                f"attribute {attr.name!r} has missing values; use "
                "single_normal_cm instead of single_normal_cn"
            )

    def accumulate_stats(self, db: Database, wts: np.ndarray) -> np.ndarray:
        x = db.columns[self._index]
        w = wts.sum(axis=0)
        wx = x @ wts
        wxx = np.square(x) @ wts
        return np.column_stack([w, wx, wxx])

    def map_params(self, stats: np.ndarray) -> NormalParams:
        mu, sigma = self._prior.map(stats[:, 0], stats[:, 1], stats[:, 2])
        return NormalParams(n_classes=stats.shape[0], mu=mu, sigma=sigma)

    def map_params_and_log_marginal(
        self, stats: np.ndarray
    ) -> tuple[NormalParams, float]:
        post = self._prior.posterior(stats[:, 0], stats[:, 1], stats[:, 2])
        mu, sigma = self._prior.mode(post)
        return (
            NormalParams(n_classes=stats.shape[0], mu=mu, sigma=sigma),
            self._prior.evidence(stats[:, 0], post),
        )

    def log_likelihood(self, db: Database, params: NormalParams) -> np.ndarray:
        out = _gauss_log_pdf(db.columns[self._index], params.mu, params.sigma)
        miss = db.missing[self._index]
        if miss.any():
            out[miss] = 0.0  # absent cell contributes evidence 1
        return out

    # -- GEMM protocol ---------------------------------------------------

    def design_columns(self, db: Database, out: np.ndarray) -> None:
        x = db.columns[self._index]
        out[:, 0] = 1.0
        out[:, 1] = x
        np.multiply(x, x, out=out[:, 2])
        miss = db.missing[self._index]
        if miss.any():
            out[miss] = 0.0

    def loglik_coefficients(self, params: NormalParams) -> np.ndarray:
        return _gauss_coefficients(params.mu, params.sigma)

    def log_prior_density(self, params: NormalParams) -> float:
        return self._prior.log_pdf(params.mu, params.sigma)

    def log_marginal(self, stats: np.ndarray) -> float:
        return self._prior.log_marginal(stats[:, 0], stats[:, 1], stats[:, 2])

    def n_free_params(self) -> int:
        return 2

    def influence(
        self, params: NormalParams, global_params: NormalParams
    ) -> np.ndarray:
        """KL(class Gaussian || global Gaussian) per class (closed form)."""
        mu_g = global_params.mu[0]
        sg = global_params.sigma[0]
        var_ratio = (params.sigma / sg) ** 2
        return 0.5 * (
            var_ratio + ((params.mu - mu_g) / sg) ** 2 - 1.0 - np.log(var_ratio)
        )


class NormalMissingTerm(TermModel):
    """Real attribute with missing values (AutoClass ``single_normal_cm``).

    Joint term density: present values contribute
    ``p_present * N(x | mu, sigma)``, absent cells contribute
    ``1 - p_present``.
    """

    spec_name = "single_normal_cm"

    #: Statistic layout per class: [sum w present, sum w*x, sum w*x^2,
    #: sum w missing].
    _N_STATS = 4

    def __init__(
        self,
        attr_index: int,
        attr: RealAttribute,
        summary: DataSummary,
        *,
        presence_prior: BetaPrior | None = None,
    ) -> None:
        self._index = int(attr_index)
        self._attr = attr
        info = summary.attribute(attr_index)
        self._prior = NormalGammaPrior.anchored(info.mean, info.var, attr.error)
        self._presence_prior = presence_prior or BetaPrior()

    @property
    def attribute_indices(self) -> tuple[int, ...]:
        return (self._index,)

    @property
    def n_stats(self) -> int:
        return self._N_STATS

    @property
    def prior(self) -> NormalGammaPrior:
        return self._prior

    @property
    def presence_prior(self) -> BetaPrior:
        return self._presence_prior

    def validate(self, db: Database) -> None:
        attr = db.schema[self._index]
        if not isinstance(attr, RealAttribute):
            raise TypeError(f"attribute {self._index} ({attr.name!r}) is not real")

    def accumulate_stats(self, db: Database, wts: np.ndarray) -> np.ndarray:
        x = db.columns[self._index]
        miss = db.missing[self._index]
        present = ~miss
        xp = np.where(present, x, 0.0)  # zero-fill NaNs before the matmuls
        w_present = present.astype(np.float64) @ wts
        wx = xp @ wts
        wxx = np.square(xp) @ wts
        w_missing = miss.astype(np.float64) @ wts
        return np.column_stack([w_present, wx, wxx, w_missing])

    def map_params(self, stats: np.ndarray) -> NormalMissingParams:
        mu, sigma = self._prior.map(stats[:, 0], stats[:, 1], stats[:, 2])
        p_present = self._presence_prior.map(stats[:, 0], stats[:, 3])
        return NormalMissingParams(
            n_classes=stats.shape[0], mu=mu, sigma=sigma, p_present=p_present
        )

    def map_params_and_log_marginal(
        self, stats: np.ndarray
    ) -> tuple[NormalMissingParams, float]:
        post = self._prior.posterior(stats[:, 0], stats[:, 1], stats[:, 2])
        mu, sigma = self._prior.mode(post)
        p_present = self._presence_prior.map(stats[:, 0], stats[:, 3])
        params = NormalMissingParams(
            n_classes=stats.shape[0], mu=mu, sigma=sigma, p_present=p_present
        )
        return params, self._prior.evidence(
            stats[:, 0], post
        ) + self._presence_prior.log_marginal(stats[:, 0], stats[:, 3])

    def log_likelihood(self, db: Database, params: NormalMissingParams) -> np.ndarray:
        x = db.columns[self._index]
        miss = db.missing[self._index]
        xp = np.where(miss, 0.0, x)
        out = _gauss_log_pdf(xp, params.mu, params.sigma)
        # In-place broadcast add / row write (no tiled temporaries).
        log_p, log_q = _log_presence(params.p_present)
        out += log_p
        if miss.any():
            out[miss] = log_q
        return out

    # -- GEMM protocol ---------------------------------------------------

    def design_columns(self, db: Database, out: np.ndarray) -> None:
        miss = db.missing[self._index]
        xp = np.where(miss, 0.0, db.columns[self._index])
        np.subtract(1.0, miss, out=out[:, 0])  # present indicator
        out[:, 1] = xp
        np.multiply(xp, xp, out=out[:, 2])
        out[:, 3] = miss  # missing indicator

    def loglik_coefficients(self, params: NormalMissingParams) -> np.ndarray:
        # Design columns: [present, x·present, x²·present, missing].
        # Present cells contribute log p_present + the expanded Gaussian;
        # absent cells contribute log (1 - p_present) only.
        coef = np.empty((self._N_STATS, params.mu.shape[0]), dtype=np.float64)
        gauss = _gauss_coefficients(params.mu, params.sigma)
        log_p, log_q = _log_presence(params.p_present)
        coef[0] = gauss[0] + log_p
        coef[1] = gauss[1]
        coef[2] = gauss[2]
        coef[3] = log_q
        return coef

    def log_prior_density(self, params: NormalMissingParams) -> float:
        return self._prior.log_pdf(params.mu, params.sigma) + self._presence_prior.log_pdf(
            params.p_present
        )

    def log_marginal(self, stats: np.ndarray) -> float:
        return self._prior.log_marginal(
            stats[:, 0], stats[:, 1], stats[:, 2]
        ) + self._presence_prior.log_marginal(stats[:, 0], stats[:, 3])

    def n_free_params(self) -> int:
        return 3

    def influence(
        self, params: NormalMissingParams, global_params: NormalMissingParams
    ) -> np.ndarray:
        """KL of the joint (presence, value) model against the global one."""
        mu_g = global_params.mu[0]
        sg = global_params.sigma[0]
        q_g = float(global_params.p_present[0])
        var_ratio = (params.sigma / sg) ** 2
        kl_gauss = 0.5 * (
            var_ratio + ((params.mu - mu_g) / sg) ** 2 - 1.0 - np.log(var_ratio)
        )
        q = params.p_present
        kl_bern = _bernoulli_kl(q, q_g)
        # The Gaussian part only matters when the value is present.
        return kl_bern + q * kl_gauss

"""Classification state: the (T, V) pair plus its evaluation scores.

A :class:`Classification` is one point in AutoClass's search space — the
model form T (a :class:`~repro.models.registry.ModelSpec` and a class
count) together with MAP parameter values V (class log-weights and
per-term parameters).  Instances are immutable; each ``base_cycle``
produces a new one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from repro.models.base import TermParams
from repro.models.priors import DirichletPrior
from repro.models.registry import ModelSpec

#: Classes whose total weight falls below this fraction of one item are
#: reported as empty ("not populated") — AutoClass's effective-class rule.
EMPTY_CLASS_WEIGHT = 0.5


@dataclass(frozen=True)
class Scores:
    """Evaluation of a classification against the data.

    Attributes
    ----------
    log_marginal_cs:
        Cheeseman–Stutz approximation of ``log P(X | T)`` — the quantity
        AutoClass ranks classifications by.
    log_lik_obs:
        Observed-data log likelihood ``log P(X | V, T)``.
    log_map_objective:
        ``log P(X | V, T) + log P(V | T)`` — the MAP-EM objective whose
        monotone growth across cycles is a tested invariant.
    w_j:
        Per-class total membership weights (sums to ``n_items``).
    n_items:
        Total items scored (global count, not a partition's).
    """

    log_marginal_cs: float
    log_lik_obs: float
    log_map_objective: float
    w_j: np.ndarray
    n_items: int

    @property
    def n_populated(self) -> int:
        """Number of classes holding at least ~one item's weight."""
        return int(np.sum(self.w_j > EMPTY_CLASS_WEIGHT))


@dataclass(frozen=True)
class Classification:
    """Model form + MAP parameters (+ scores once evaluated)."""

    spec: ModelSpec
    n_classes: int
    log_pi: np.ndarray
    term_params: tuple[TermParams, ...]
    scores: Scores | None = None
    n_cycles: int = 0

    def __post_init__(self) -> None:
        if self.log_pi.shape != (self.n_classes,):
            raise ValueError(
                f"log_pi shape {self.log_pi.shape} != ({self.n_classes},)"
            )
        if len(self.term_params) != self.spec.n_terms:
            raise ValueError(
                f"{len(self.term_params)} term params for {self.spec.n_terms} terms"
            )
        for tp in self.term_params:
            if tp.n_classes != self.n_classes:
                raise ValueError(
                    f"term params have {tp.n_classes} classes, expected {self.n_classes}"
                )

    @property
    def pi(self) -> np.ndarray:
        """Class mixing weights."""
        return np.exp(self.log_pi)

    def with_scores(self, scores: Scores, n_cycles: int | None = None) -> "Classification":
        return replace(
            self,
            scores=scores,
            n_cycles=self.n_cycles if n_cycles is None else n_cycles,
        )

    def describe(self) -> str:
        lines = [
            f"Classification: J={self.n_classes}, cycles={self.n_cycles}",
        ]
        if self.scores is not None:
            lines.append(
                f"  log P(X|T) ~= {self.scores.log_marginal_cs:.4f} (Cheeseman-Stutz), "
                f"log P(X|V) = {self.scores.log_lik_obs:.4f}, "
                f"populated classes = {self.scores.n_populated}"
            )
        return "\n".join(lines)


@lru_cache(maxsize=None)
def class_weight_prior(n_classes: int) -> DirichletPrior:
    """The Dirichlet prior on the class mixing weights.

    AutoClass's rule with ``alpha = 1 + 1/J`` gives the MAP estimate
    ``pi_j = (w_j + 1/J) / (N + 1)``.  One (immutable) instance per
    ``J``, so its cached scalars are computed once per process.
    """
    return DirichletPrior.autoclass(n_classes)
